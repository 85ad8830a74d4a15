#include "src/volume/volume.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

Volume::Volume(Simulator* sim, const VolumeConfig& config, std::vector<Member> members)
    : sim_(sim), config_(config), members_(std::move(members)) {
  CCNVME_CHECK(sim_ != nullptr);
  CCNVME_CHECK(!members_.empty());
  CCNVME_CHECK_GT(config_.chunk_blocks, 0u);
  for (const Member& m : members_) {
    CCNVME_CHECK(m.nvme != nullptr);
    CCNVME_CHECK(m.ssd != nullptr);
  }
  alive_.assign(members_.size(), true);
}

uint16_t Volume::PrimaryLeg() const {
  for (uint16_t d = 0; d < members_.size(); ++d) {
    if (alive_[d]) return d;
  }
  CCNVME_CHECK(false) << "no live leg";
  return 0;
}

std::vector<uint16_t> Volume::LiveLegs() const {
  std::vector<uint16_t> out;
  for (uint16_t d = 0; d < members_.size(); ++d) {
    if (alive_[d]) out.push_back(d);
  }
  return out;
}

std::vector<uint16_t> Volume::TargetLegs(const Extent& extent) const {
  if (config_.kind == VolumeKind::kMirror) return LiveLegs();
  return {extent.device};
}

std::vector<Volume::Extent> Volume::MapExtents(const VolumeConfig& config,
                                               uint16_t num_devices, uint16_t primary,
                                               uint64_t lba, uint32_t num_blocks) {
  CCNVME_CHECK_GT(num_blocks, 0u);
  if (config.kind == VolumeKind::kMirror || num_devices == 1) {
    return {Extent{primary, lba, num_blocks, 0}};
  }
  const uint64_t chunk = config.chunk_blocks;
  const uint64_t n = num_devices;
  std::vector<Extent> out;
  uint64_t cur = lba;
  uint32_t remaining = num_blocks;
  uint32_t buf_off = 0;
  while (remaining > 0) {
    const uint64_t stripe = cur / chunk;
    const uint64_t within = cur % chunk;
    const uint32_t take =
        static_cast<uint32_t>(std::min<uint64_t>(remaining, chunk - within));
    Extent e;
    e.device = static_cast<uint16_t>(stripe % n);
    e.dev_lba = (stripe / n) * chunk + within;
    e.num_blocks = take;
    e.buf_offset = buf_off;
    out.push_back(e);
    cur += take;
    remaining -= take;
    buf_off += take;
  }
  return out;
}

const Buffer* Volume::SliceFor(const Extent& extent, const Buffer* data,
                               std::vector<std::shared_ptr<Buffer>>& keep_alive) const {
  const size_t bytes = static_cast<size_t>(extent.num_blocks) * kLbaSize;
  if (bytes == data->size()) return data;
  auto slice = std::make_shared<Buffer>(
      data->begin() + static_cast<size_t>(extent.buf_offset) * kLbaSize,
      data->begin() + static_cast<size_t>(extent.buf_offset) * kLbaSize + bytes);
  keep_alive.push_back(slice);
  return slice.get();
}

uint64_t Volume::Record(uint16_t device, BioOp op, uint64_t dev_lba, uint32_t flags,
                        uint64_t tx_id, const Buffer* data) {
  if (!recorder_) return 0;
  BioEvent ev;
  ev.op = op;
  ev.seq = next_record_seq_++;
  ev.lba = dev_lba;
  ev.flags = flags;
  ev.tx_id = tx_id;
  ev.device = device;
  if (data != nullptr) ev.data = *data;
  recorder_(ev);
  return ev.seq;
}

void Volume::RecordCompletion(uint16_t device, uint64_t seq) {
  if (!recorder_ || seq == 0) return;
  BioEvent ev;
  ev.op = BioOp::kComplete;
  ev.seq = seq;
  ev.device = device;
  recorder_(ev);
}

NvmeDriver::RequestHandle Volume::SubmitWrite(uint16_t qid, uint64_t lba, const Buffer* data,
                                              uint32_t flags,
                                              std::function<void()> on_complete) {
  CCNVME_CHECK(data != nullptr && !data->empty());
  const auto extents = MapExtents(lba, static_cast<uint32_t>(data->size() / kLbaSize));
  const bool fua = (flags & kBioFua) != 0;
  if (extents.size() == 1 && TargetLegs(extents[0]).size() == 1) {
    // One leg: hand back that leg's own request, so the caller wakes after
    // the driver's wake-up cost exactly as on a one-device stack.
    const uint16_t dev = extents[0].device;
    const uint64_t dev_lba = extents[0].dev_lba;
    const uint64_t seq = Record(dev, BioOp::kWrite, dev_lba, flags, 0, data);
    return members_[dev].nvme->SubmitWrite(
        qid, dev_lba, data, fua, 0, 0, [this, dev, seq, cb = std::move(on_complete)] {
          RecordCompletion(dev, seq);
          if (cb) cb();
        });
  }
  auto parent = std::make_shared<NvmeDriver::Request>(sim_);
  // remaining starts at 1: the extra count is released only after the
  // submission loop, so the parent cannot signal (and read a half-built leg
  // list) while legs are still being submitted.
  struct State {
    int remaining = 1;
    std::function<void()> cb;
    std::vector<std::shared_ptr<Buffer>> slices;
    std::vector<NvmeDriver::RequestHandle> legs;
  };
  auto st = std::make_shared<State>();
  st->cb = std::move(on_complete);
  auto done_one = [this, st, parent] {
    if (--st->remaining > 0) return;
    for (const auto& leg : st->legs) parent->nvme_status |= leg->nvme_status;
    if (st->cb) st->cb();
    parent->done.Signal();
  };
  for (const Extent& e : extents) {
    const Buffer* slice = SliceFor(e, data, st->slices);
    for (uint16_t dev : TargetLegs(e)) {
      const uint64_t seq = Record(dev, BioOp::kWrite, e.dev_lba, flags, 0, slice);
      st->remaining++;
      st->legs.push_back(members_[dev].nvme->SubmitWrite(
          qid, e.dev_lba, slice, fua, 0, 0, [this, dev, seq, done_one] {
            RecordCompletion(dev, seq);
            done_one();
          }));
    }
  }
  done_one();
  return parent;
}

Status Volume::Read(uint16_t qid, uint64_t lba, uint32_t num_blocks, Buffer* out) {
  CCNVME_CHECK(out != nullptr);
  const auto extents = MapExtents(lba, num_blocks);
  if (extents.size() == 1) {
    const Extent& e = extents[0];
    const uint16_t dev =
        config_.kind == VolumeKind::kMirror ? PrimaryLeg() : e.device;
    return members_[dev].nvme->Read(qid, e.dev_lba, e.num_blocks, out);
  }
  // Parallel per-extent reads, reassembled in volume order.
  std::vector<Buffer> parts(extents.size());
  std::vector<NvmeDriver::RequestHandle> reqs;
  reqs.reserve(extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    reqs.push_back(members_[extents[i].device].nvme->SubmitRead(
        qid, extents[i].dev_lba, extents[i].num_blocks, &parts[i]));
  }
  Status result = OkStatus();
  for (size_t i = 0; i < extents.size(); ++i) {
    Status st = NvmeDriver::Wait(reqs[i]);
    if (!st.ok() && result.ok()) result = st;
  }
  if (!result.ok()) return result;
  out->assign(static_cast<size_t>(num_blocks) * kLbaSize, 0);
  for (size_t i = 0; i < extents.size(); ++i) {
    std::copy(parts[i].begin(), parts[i].end(),
              out->begin() + static_cast<size_t>(extents[i].buf_offset) * kLbaSize);
  }
  return OkStatus();
}

Status Volume::Flush(uint16_t qid, uint32_t flags) {
  std::vector<uint16_t> legs = LiveLegs();
  std::vector<uint64_t> seqs;
  std::vector<NvmeDriver::RequestHandle> reqs;
  for (uint16_t dev : legs) {
    seqs.push_back(Record(dev, BioOp::kFlush, 0, flags, 0, nullptr));
    reqs.push_back(members_[dev].nvme->SubmitFlush(qid));
  }
  Status result = OkStatus();
  for (size_t i = 0; i < legs.size(); ++i) {
    Status st = NvmeDriver::Wait(reqs[i]);
    if (st.ok()) {
      RecordCompletion(legs[i], seqs[i]);
    } else if (result.ok()) {
      result = st;
    }
  }
  return result;
}

void Volume::SubmitTx(uint16_t qid, uint64_t tx_id, uint64_t lba, const Buffer* data,
                      std::function<void()> on_complete) {
  CCNVME_CHECK(data != nullptr && !data->empty());
  OpenTx& tx = open_txs_[qid];
  if (tx.tx_id == 0) {
    tx.tx_id = tx_id;
    tx.touched.assign(members_.size(), false);
  }
  CCNVME_CHECK_EQ(tx.tx_id, tx_id) << "one open transaction per queue";
  const auto extents = MapExtents(lba, static_cast<uint32_t>(data->size() / kLbaSize));
  size_t legs = 0;
  for (const Extent& e : extents) legs += TargetLegs(e).size();
  std::function<void()> leg_cb;
  if (on_complete) {
    auto remaining = std::make_shared<size_t>(legs);
    leg_cb = [remaining, cb = std::move(on_complete)] {
      if (--*remaining == 0) cb();
    };
  }
  for (const Extent& e : extents) {
    const Buffer* slice = SliceFor(e, data, tx.slices);
    for (uint16_t dev : TargetLegs(e)) {
      CCNVME_CHECK(members_[dev].cc != nullptr) << "volume transaction without ccNVMe";
      const uint64_t seq = Record(dev, BioOp::kWrite, e.dev_lba, kBioTx, tx_id, slice);
      if (seq != 0) tx.member_seqs.emplace_back(dev, seq);
      tx.touched[dev] = true;
      members_[dev].cc->SubmitTx(qid, tx_id, e.dev_lba, slice, leg_cb);
    }
  }
}

CcNvmeDriver::TxHandle Volume::CommitTx(uint16_t qid, uint64_t tx_id, uint64_t lba,
                                        const Buffer* data,
                                        std::function<void()> on_durable) {
  CCNVME_CHECK(data != nullptr && !data->empty());
  OpenTx tx;
  if (auto it = open_txs_.find(qid); it != open_txs_.end()) {
    tx = std::move(it->second);
    open_txs_.erase(it);
    CCNVME_CHECK_EQ(tx.tx_id, tx_id) << "one open transaction per queue";
  }
  if (tx.touched.empty()) tx.touched.assign(members_.size(), false);

  const auto extents = MapExtents(lba, static_cast<uint32_t>(data->size() / kLbaSize));
  CCNVME_CHECK_EQ(extents.size(), 1u) << "commit record must not span devices";
  const bool mirror = config_.kind == VolumeKind::kMirror;
  const uint16_t commit_dev = mirror ? PrimaryLeg() : extents[0].device;
  const uint64_t commit_lba = extents[0].dev_lba;
  CCNVME_CHECK(members_[commit_dev].cc != nullptr) << "volume transaction without ccNVMe";

  // Members to seal, in ascending device order: every other live leg this
  // transaction touched. On a mirror every live leg also gets the commit
  // descriptor staged as a plain member write first, so each leg's journal
  // copy is self-contained for a later rebuild/failover.
  std::vector<uint16_t> seal;
  for (uint16_t d = 0; d < members_.size(); ++d) {
    if (d == commit_dev || !alive_[d]) continue;
    if (mirror || tx.touched[d]) seal.push_back(d);
  }

  auto parent = std::make_shared<CcNvmeDriver::Transaction>(sim_);
  parent->tx_id = tx_id;
  // remaining starts at 1 (released after all member handles are
  // registered) so the volume-level durable cannot fire mid-fan-out.
  struct State {
    int remaining = 1;
    uint64_t tx_id = 0;
    std::function<void()> cb;
    std::vector<std::pair<uint16_t, uint64_t>> seqs;
    std::vector<std::shared_ptr<Buffer>> slices;
    // (device, durable time) per member, for straggler wait-edge
    // attribution. Times, not handles: a member handle here would close a
    // cycle through that member's own on_durable callback, and leak both
    // when the transaction never completes.
    std::vector<std::pair<uint16_t, uint64_t>> durable_at;
  };
  auto st = std::make_shared<State>();
  st->tx_id = tx_id;
  st->cb = std::move(on_durable);
  st->seqs = std::move(tx.member_seqs);
  st->slices = std::move(tx.slices);
  auto done_one = [this, st, parent] {
    if (--st->remaining > 0) return;
    for (const auto& [dev, seq] : st->seqs) RecordCompletion(dev, seq);
    if (Tracer* t = sim_->tracer()) {
      // Fan-out stragglers: a member that completed early still holds the
      // volume transaction open until the slowest leg lands.
      const uint64_t end = sim_->now();
      for (const auto& [dev, at] : st->durable_at) {
        t->WaitEdgeWith(WaitEdge::kVolumeFanout, {0, st->tx_id, dev}, at, end, dev);
      }
    }
    if (st->cb) st->cb();
    parent->durable_at_ns = sim_->now();
    parent->durable.Signal();
  };

  // Counts member |dev| in and returns its on_durable callback, which
  // stamps the member's durable time before counting it down.
  auto member_durable = [&](uint16_t dev) {
    const size_t slot = st->durable_at.size();
    st->durable_at.emplace_back(dev, 0);
    st->remaining++;
    return [this, st, slot, done_one] {
      st->durable_at[slot].second = sim_->now();
      done_one();
    };
  };

  std::vector<std::pair<uint16_t, CcNvmeDriver::TxHandle>> sealed;
  auto seal_member = [&](uint16_t dev) {
    if (mirror) {
      const uint64_t seq = Record(dev, BioOp::kWrite, commit_lba, kBioTx, tx_id, data);
      if (seq != 0) st->seqs.emplace_back(dev, seq);
      members_[dev].cc->SubmitTx(qid, tx_id, commit_lba, data, nullptr);
    }
    sealed.emplace_back(dev, members_[dev].cc->SealTx(qid, tx_id, member_durable(dev)));
    if (Metrics* m = sim_->metrics()) {
      m->monitors().OnVolumeMemberSealed(tx_id);
    }
  };
  auto commit_member = [&] {
    const uint64_t seq =
        Record(commit_dev, BioOp::kWrite, commit_lba, kBioTx | kBioTxCommit, tx_id, data);
    if (seq != 0) st->seqs.emplace_back(commit_dev, seq);
    if (Metrics* m = sim_->metrics()) {
      // Volume-wide gate: the commit device's doorbell is the atomicity
      // point, so every other member must have sealed before this ring.
      m->monitors().OnVolumeCommitRing(tx_id, seal.size());
    }
    CcNvmeDriver::TxHandle h =
        members_[commit_dev].cc->CommitTx(qid, tx_id, commit_lba, data, member_durable(commit_dev));
    parent->atomic_at_ns = h->atomic_at_ns;
  };

  if (config_.test_skip_volume_commit_gate && !seal.empty()) {
    // INJECTED BUG: the commit device's doorbell rings while the member
    // slices are still volatile in other devices' WC buffers. A crash in
    // the window leaves a valid-looking committed transaction with missing
    // member slices — the crash-state explorer must flag this.
    commit_member();
    Simulator::Sleep(20'000);
    for (uint16_t dev : seal) seal_member(dev);
  } else {
    // Two-phase: seal every member, THEN ring the commit doorbell. The
    // commit device's P-SQDB is the volume-wide atomicity point.
    for (uint16_t dev : seal) seal_member(dev);
    commit_member();
    if (Tracer* t = sim_->tracer()) {
      // Seal→commit gate: a sealed member sits atomic-but-unordered until
      // the commit device's doorbell makes the whole volume tx atomic.
      for (const auto& [dev, h] : sealed) {
        t->WaitEdgeWith(WaitEdge::kSealCommitGate,
                        {CurrentTraceContext().req_id, tx_id, dev}, h->atomic_at_ns,
                        parent->atomic_at_ns, dev);
      }
    }
  }
  done_one();
  return parent;
}

std::vector<CcNvmeDriver::UnfinishedRequest> Volume::RecoveredWindow() const {
  std::vector<CcNvmeDriver::UnfinishedRequest> out;
  for (uint16_t d = 0; d < members_.size(); ++d) {
    if (members_[d].cc == nullptr) continue;
    for (CcNvmeDriver::UnfinishedRequest u : members_[d].cc->recovered_window()) {
      u.device = d;
      out.push_back(u);
    }
  }
  return out;
}

void Volume::FailDevice(uint16_t device) {
  CCNVME_CHECK(config_.kind == VolumeKind::kMirror)
      << "only mirrored volumes support degraded operation";
  CCNVME_CHECK_LT(device, members_.size());
  CCNVME_CHECK(alive_[device]) << "device " << device << " already failed";
  CCNVME_CHECK_GT(LiveLegs().size(), 1u) << "cannot fail the last live leg";
  alive_[device] = false;
  if (members_[device].cc != nullptr) {
    for (uint16_t qid = 0; qid < members_[device].cc->num_queues(); ++qid) {
      members_[device].cc->AbortOpenTx(qid);
    }
  }
}

Status Volume::RebuildDevice(uint16_t device, uint16_t qid) {
  CCNVME_CHECK(config_.kind == VolumeKind::kMirror);
  CCNVME_CHECK_LT(device, members_.size());
  CCNVME_CHECK(!alive_[device]) << "device " << device << " is not failed";
  const uint16_t src = PrimaryLeg();
  // Promote the source's pending writes so the durable snapshot below is
  // the complete picture, then re-enable the leg FIRST: new writes mirror
  // to it (write-through) while the copy proceeds, so nothing is missed.
  Status st = members_[src].nvme->Flush(qid);
  if (!st.ok()) return st;
  alive_[device] = true;
  const MediaStore::BlockMap blocks = members_[src].ssd->media().SnapshotDurable();
  auto it = blocks.begin();
  while (it != blocks.end()) {
    // Coalesce runs of consecutive blocks into single copy I/Os.
    const uint64_t start = it->first;
    uint64_t end = start;
    while (it != blocks.end() && it->first == end && end - start < 256) {
      ++end;
      ++it;
    }
    Buffer chunk;
    st = members_[src].nvme->Read(qid, start, static_cast<uint32_t>(end - start), &chunk);
    if (!st.ok()) return st;
    const uint64_t seq = Record(device, BioOp::kWrite, start, 0, 0, &chunk);
    st = members_[device].nvme->Write(qid, start, chunk, false);
    if (!st.ok()) return st;
    RecordCompletion(device, seq);
  }
  const uint64_t fseq = Record(device, BioOp::kFlush, 0, 0, 0, nullptr);
  st = members_[device].nvme->Flush(qid);
  if (st.ok()) RecordCompletion(device, fseq);
  return st;
}

}  // namespace ccnvme
