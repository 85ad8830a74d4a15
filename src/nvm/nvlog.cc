#include "src/nvm/nvlog.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/logging.h"
#include "src/driver/host_costs.h"
#include "src/extfs/extfs.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

// ---------------------------------------------------------------------------
// NvLog (ring cursors over the NvmDevice)

NvLog::NvLog(Simulator* sim, NvmDevice* nvm) : sim_(sim), nvm_(nvm) {}

NvLogScan NvLog::Init() {
  if (nvm_->live_image().ReadU64(0) != kNvLogMagic) {
    // Fresh device: lay down the control block and an empty ring.
    nvm_->StoreU64(0, kNvLogMagic);
    nvm_->StoreU64(kNvLogHeadWordOffset, PackNvLogHead(0, 0));
    uint8_t zero[kNvmWordSize] = {};
    RingStore(0, zero);
    nvm_->FlushFence();
  }
  // The shared offline scanner reads the live view's pages directly; the
  // mount pays for the bytes it read (control block, head..tail), not the
  // whole region.
  NvLogScan scan = ScanNvLogImage(nvm_->live_image());
  nvm_->ChargeLoad(scan.scanned_bytes);
  CCNVME_CHECK(scan.ctrl.valid) << "NVM log invalid after format: " << scan.stop_reason;
  head_off_ = scan.ctrl.head_off;
  head_seq_ = scan.ctrl.head_seq;
  tail_off_ = scan.tail_end_off;
  next_seq_ = (scan.tail.empty() ? head_seq_ : scan.tail.back().seq) + 1;
  // Entries that survived the scan are durable by definition.
  appended_seq_ = durable_seq_ = next_seq_ - 1;
  used_bytes_ = 0;
  for (const NvLogEntryInfo& e : scan.tail) {
    used_bytes_ += e.entry_bytes;
  }
  return scan;
}

void NvLog::RingStore(size_t off, std::span<const uint8_t> data) {
  const size_t ring = ring_bytes();
  off %= ring;
  const size_t first = std::min(data.size(), ring - off);
  nvm_->Store(kNvLogCtrlBytes + off, data.first(first));
  if (first < data.size()) {
    nvm_->Store(kNvLogCtrlBytes, data.subspan(first));
  }
}

uint64_t NvLog::Append(uint64_t tx_id, const std::vector<NvLogBlock>& blocks) {
  const size_t entry_bytes = NvLogEntrySize(blocks.size());
  CCNVME_CHECK(HasSpace(entry_bytes)) << "NvLog::Append without space";
  const uint64_t seq = next_seq_++;
  const Buffer header = EncodeNvLogHeader(seq, tx_id, blocks);
  RingStore(tail_off_, header);
  size_t off = tail_off_ + header.size();
  for (const NvLogBlock& b : blocks) {
    RingStore(off, b.payload);
    off += b.payload.size();
  }
  // Zero the magic slot just past the new tail so a recovery scan never
  // walks into a stale previous-lap entry.
  uint8_t zero[kNvmWordSize] = {};
  RingStore(off, zero);
  tail_off_ = static_cast<uint32_t>((tail_off_ + entry_bytes) % ring_bytes());
  used_bytes_ += entry_bytes;
  appended_seq_ = seq;
  return seq;
}

void NvLog::Fence() {
  // The barrier covers only entries appended before it begins: another
  // appender may append while its flush is in progress.
  const uint64_t covered = appended_seq_;
  nvm_->FlushFence();
  durable_seq_ = std::max(durable_seq_, covered);
}

void NvLog::AdvanceHead(uint32_t new_off, uint64_t new_seq, size_t freed_bytes) {
  nvm_->StoreU64(kNvLogHeadWordOffset, PackNvLogHead(new_seq, new_off));
  // The barrier persists the frontier — and, being a global fence, every
  // entry appended before it began (an appender's unfenced entry rides
  // along).
  const uint64_t covered = appended_seq_;
  nvm_->FlushFence();
  durable_seq_ = std::max(durable_seq_, covered);
  head_off_ = new_off;
  head_seq_ = new_seq;
  CCNVME_CHECK_LE(freed_bytes, used_bytes_);
  used_bytes_ -= freed_bytes;
}

void NvLog::RingLoad(size_t off, std::span<uint8_t> out) {
  const size_t ring = ring_bytes();
  off %= ring;
  const size_t first = std::min(out.size(), ring - off);
  nvm_->Load(kNvLogCtrlBytes + off, out.first(first));
  if (first < out.size()) {
    nvm_->Load(kNvLogCtrlBytes, out.subspan(first));
  }
}

NvLogBlock NvLog::LoadBlock(uint32_t entry_ring_off, size_t nblocks, size_t block_index) {
  const size_t header_bytes = NvLogHeaderSize(nblocks);
  uint8_t lba_raw[8];
  RingLoad(entry_ring_off + 32 + 16 * block_index, lba_raw);
  NvLogBlock out;
  out.home_lba = GetU64(lba_raw, 0);
  out.payload.resize(kFsBlockSize);
  RingLoad(entry_ring_off + header_bytes + block_index * kFsBlockSize, out.payload);
  return out;
}

// ---------------------------------------------------------------------------
// NvLogJournal

NvLogJournal::NvLogJournal(Simulator* sim, BlockLayer* blk, NvmDevice* nvm, ExtFs* fs,
                           const NvLogOptions& options)
    : sim_(sim),
      blk_(blk),
      nvm_(nvm),
      fs_(fs),
      options_(options),
      log_(sim, nvm),
      mu_(sim),
      drain_cv_(sim),
      space_cv_(sim),
      idle_cv_(sim),
      stopped_(sim) {
  mount_scan_ = log_.Init();
  CCNVME_CHECK_GE(options_.drainers, 1u) << "NvLog needs at least one drainer";
  live_drainers_ = options_.drainers;
  for (uint32_t i = 0; i < options_.drainers; ++i) {
    sim_->Spawn("nvlog_draind/" + std::to_string(i), [this] { DrainLoop(); });
  }
}

Status NvLogJournal::Sync(const SyncOp& op, SyncMode mode) {
  (void)mode;  // durability at NVM speed; nothing cheaper to decouple to
  // EVERY dirty block — data and metadata alike — goes through the log; the
  // block stack is off the critical path entirely.
  std::vector<BlockBufPtr> bufs;
  bufs.reserve(op.data.size() + op.metadata.size());
  for (const BlockBufPtr& buf : op.data) {
    bufs.push_back(buf);
  }
  for (const BlockBufPtr& buf : op.metadata) {
    bufs.push_back(buf);
  }
  if (bufs.empty()) {
    return OkStatus();
  }

  Tracer* tracer = sim_->tracer();
  uint64_t last_seq = 0;
  {
    const uint64_t lock_begin = sim_->now();
    SimLockGuard guard(mu_);
    if (tracer != nullptr) {
      // Appenders serialize on the single log tail — the NVLog sibling of
      // the jbd2 handle wait.
      tracer->WaitEdgeEvent(WaitEdge::kJournalHandle, lock_begin, sim_->now());
    }
    const uint64_t tx_id = fs_->AllocTxId();
    MutableTraceContext().tx_id = tx_id;

    // Freeze the pages; writers stall until the entry is durable (not until
    // it drains — that is the whole point). The freeze is one flag, not a
    // count: when two inodes share an inode-table block, the first appender's
    // EndWriteback thaws the page while a neighbour that froze it too may
    // still be parked in the space wait below, and a writer can change it
    // then. That is safe because each chunk copies its blocks only when it
    // takes its sequence number, under mu_: no entry holds older bytes of a
    // block than an entry with a lower sequence number, and drain and
    // recovery apply entries in sequence order. A change made after the
    // copy is logged again when its own op syncs.
    for (const BlockBufPtr& buf : bufs) {
      buf->BeginWriteback();
    }

    ScopedSpan span(tracer, TracePoint::kNvlogAppend);
    Simulator::Sleep(kFsJournalDescNs);  // build the entry header
    for (size_t pos = 0; pos < bufs.size(); pos += kNvLogMaxBlocksPerEntry) {
      const size_t n = std::min(kNvLogMaxBlocksPerEntry, bufs.size() - pos);
      const size_t entry_bytes = NvLogEntrySize(n);
      CCNVME_CHECK(entry_bytes + kNvmWordSize < log_.ring_bytes())
          << "sync op larger than the whole NVM log";
      // Log full: the absorb window is exhausted; park until the drainer
      // frees ring space. This is the back-pressure edge of the
      // absorb-then-drain design.
      const uint64_t space_begin = sim_->now();
      while (!log_.HasSpace(entry_bytes)) {
        // The drainer claims only entries a barrier covers, and earlier
        // chunks of this op (or other appenders' entries) may not be
        // covered yet: fence them first so it can free space.
        if (!options_.test_skip_fence && log_.durable_seq() + 1 < log_.next_seq()) {
          log_.Fence();
        }
        drain_cv_.NotifyOne();
        space_cv_.Wait(mu_);
      }
      if (tracer != nullptr) {
        tracer->WaitEdgeEvent(WaitEdge::kNvlogDrain, space_begin, sim_->now());
      }
      std::vector<NvLogBlock> chunk;
      chunk.reserve(n);
      for (size_t i = pos; i < pos + n; ++i) {
        chunk.push_back(NvLogBlock{bufs[i]->block_no, bufs[i]->data});
      }
      PendingEntry pe;
      pe.ring_off = log_.tail_off();
      pe.entry_bytes = entry_bytes;
      for (const NvLogBlock& b : chunk) {
        pe.home_lbas.push_back(b.home_lba);
      }
      pe.seq = log_.Append(tx_id, chunk);
      last_seq = pe.seq;
      pending_.push_back(std::move(pe));
      appended_entries_++;
    }
  }

  // mu_ covers only the copy into the ring: the next appender copies its
  // entry while this one's barrier runs. The drainer claims an entry only
  // once a barrier covers it (CanClaimFront), so log-before-checkpoint still
  // holds.
  if (!options_.test_skip_fence) {
    // The durability point of an NVLog fsync: one flush+fence persist
    // barrier, no disk I/O — unless a barrier that began after this entry
    // was appended has already covered it.
    ScopedSpan span(tracer, TracePoint::kNvlogFence);
    const uint64_t fence_begin = sim_->now();
    if (log_.durable_seq() < last_seq) {
      log_.Fence();
    }
    if (tracer != nullptr) {
      tracer->WaitEdgeEvent(WaitEdge::kNvmFlush, fence_begin, sim_->now());
    }
  }

  for (const BlockBufPtr& buf : bufs) {
    buf->jstate = JournalState::kClean;
    buf->dirty = false;
    buf->EndWriteback();
  }
  drain_cv_.NotifyOne();
  Simulator::Sleep(kWakeupNs);
  return OkStatus();
}

bool NvLogJournal::CanClaimFront() const {
  if (pending_.empty()) {
    return false;
  }
  // Log before checkpoint: an entry drains only once a persist barrier
  // covers it. The injected fence-skip bug is exactly draining unfenced
  // entries, so it keeps claiming them (no barrier would ever come).
  if (pending_.front().seq > log_.durable_seq() && !options_.test_skip_fence) {
    return false;
  }
  for (uint64_t lba : pending_.front().home_lbas) {
    if (claimed_lbas_.count(lba) != 0) {
      return false;
    }
  }
  return true;
}

NvLogJournal::Batch NvLogJournal::ClaimBatch(bool rush) {
  Batch batch;
  const size_t limit = rush ? pending_.size()
                            : std::min<size_t>(pending_.size(), options_.drain_batch);
  while (batch.entries.size() < limit && CanClaimFront()) {
    PendingEntry e = std::move(pending_.front());
    pending_.pop_front();
    if (Metrics* m = sim_->metrics()) {
      // The drain-order invariant, checked at the claim under mu_: the entry
      // must already be durable in NVM before any of its blocks is
      // checkpointed. Checked later, a barrier landing meanwhile would hide
      // a claim made before it.
      m->monitors().OnNvlogCheckpoint(e.seq, log_.durable_seq());
    }
    for (uint64_t lba : e.home_lbas) {
      claimed_lbas_[lba]++;
    }
    batch.freed_bytes += e.entry_bytes;
    batch.end_off = static_cast<uint32_t>((e.ring_off + e.entry_bytes) % log_.ring_bytes());
    batch.end_seq = e.seq;
    batch.entries.push_back(std::move(e));
  }
  if (!batch.entries.empty()) {
    batch.id = next_batch_id_++;
  }
  return batch;
}

void NvLogJournal::DrainLoop() {
  blk_->BindQueue(0);  // drainers checkpoint on core 0's queue
  for (;;) {
    bool rush;
    {
      SimLockGuard guard(mu_);
      while (!CanClaimFront()) {
        if (pending_.empty() && draining_ == 0) {
          idle_cv_.NotifyAll();
        }
        if (stopping_) {
          if (--live_drainers_ == 0) {
            stopped_.Signal();
          }
          return;
        }
        drain_cv_.Wait(mu_);
      }
      rush = drain_all_;
      draining_++;
    }
    if (!rush) {
      Simulator::Sleep(options_.drain_delay_ns);  // absorb window
    }
    Batch batch;
    {
      // Claim AFTER the absorb window so the batch covers everything that
      // arrived during it. May come back empty if a sibling drained the
      // queue (or the front got claimed) while we slept.
      SimLockGuard guard(mu_);
      batch = ClaimBatch(drain_all_);
      if (batch.entries.empty()) {
        draining_--;
        if (pending_.empty() && draining_ == 0) {
          idle_cv_.NotifyAll();
        }
        continue;
      }
    }
    Status st = DrainBatch(batch);
    CCNVME_CHECK(st.ok()) << "nvlog drain failed: " << st.ToString();
    {
      SimLockGuard guard(mu_);
      RetireBatch(batch);
      draining_--;
      space_cv_.NotifyAll();
      // A retired batch may unblock a sibling parked on a claimed block.
      drain_cv_.NotifyAll();
      if (pending_.empty() && draining_ == 0) {
        idle_cv_.NotifyAll();
      }
    }
  }
}

Status NvLogJournal::DrainBatch(const Batch& batch) {
  ScopedSpan span(sim_->tracer(), TracePoint::kNvlogDrain);

  // Read the batch back from NVM, newest write per home block wins — the
  // coalescing that makes absorb-then-drain cheaper than in-place syncs.
  // Across concurrent batches the claim map guarantees disjoint home
  // blocks, so newest-wins holds globally too.
  std::map<uint64_t, Buffer> writes;
  size_t logged_blocks = 0;
  for (const PendingEntry& e : batch.entries) {
    for (size_t b = 0; b < e.home_lbas.size(); ++b) {
      NvLogBlock blk = log_.LoadBlock(e.ring_off, e.home_lbas.size(), b);
      writes[blk.home_lba] = std::move(blk.payload);
      logged_blocks++;
    }
  }
  coalesced_blocks_ += logged_blocks - writes.size();

  std::vector<NvmeDriver::RequestHandle> handles;
  for (const auto& [lba, payload] : writes) {
    handles.push_back(blk_->SubmitWrite(lba, &payload, 0));
  }
  for (auto& h : handles) {
    CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
  }
  // Checkpointed blocks must be durable before their log space is reused.
  CCNVME_RETURN_IF_ERROR(blk_->FlushSync());
  drained_entries_ += batch.entries.size();
  drain_batches_++;
  return OkStatus();
}

void NvLogJournal::RetireBatch(const Batch& batch) {
  for (const PendingEntry& e : batch.entries) {
    for (uint64_t lba : e.home_lbas) {
      auto it = claimed_lbas_.find(lba);
      CCNVME_CHECK(it != claimed_lbas_.end());
      if (--it->second == 0) {
        claimed_lbas_.erase(it);
      }
    }
  }
  Batch done;
  done.id = batch.id;
  done.end_off = batch.end_off;
  done.end_seq = batch.end_seq;
  done.freed_bytes = batch.freed_bytes;
  completed_.emplace(done.id, std::move(done));
  // Advance the persistent frontier over the contiguous completed prefix
  // only: batch k+1 finishing before batch k must NOT truncate k's entries
  // — a crash would lose their only durable copy while their checkpoint
  // writes are still in flight.
  uint32_t adv_off = 0;
  uint64_t adv_seq = 0;
  size_t adv_freed = 0;
  bool any = false;
  while (true) {
    auto it = completed_.find(next_retire_id_);
    if (it == completed_.end()) {
      break;
    }
    adv_off = it->second.end_off;
    adv_seq = it->second.end_seq;
    adv_freed += it->second.freed_bytes;
    completed_.erase(it);
    next_retire_id_++;
    any = true;
  }
  if (any) {
    log_.AdvanceHead(adv_off, adv_seq, adv_freed);
  }
}

Status NvLogJournal::Recover() {
  ScopedSpan span(sim_->tracer(), TracePoint::kNvlogRecover);
  // Replays the tail NvLog::Init scanned (and paid for) at construction.
  // Nothing stores to the tier until recovery advances the head below, so
  // the live view still holds the scanned payloads.
  const NvLogScan scan = std::exchange(mount_scan_, {});
  const PageImage& snap = nvm_->live_image();
  if (!scan.ctrl.valid || scan.tail.empty()) {
    return OkStatus();
  }
  // The scan's entries survived the cut with valid checksums — durable.
  const uint64_t durable_seq = scan.tail.back().seq;
  size_t freed = 0;
  for (const NvLogEntryInfo& e : scan.tail) {
    if (Metrics* m = sim_->metrics()) {
      m->monitors().OnNvlogCheckpoint(e.seq, durable_seq);
    }
    for (size_t b = 0; b < e.home_lbas.size(); ++b) {
      const Buffer payload = ReadNvLogPayload(snap, e, b);
      CCNVME_RETURN_IF_ERROR(blk_->WriteSync(e.home_lbas[b], payload));
    }
    freed += e.entry_bytes;
  }
  CCNVME_RETURN_IF_ERROR(blk_->FlushSync());
  log_.AdvanceHead(scan.tail_end_off, durable_seq, freed);
  drained_entries_ += scan.tail.size();
  drain_batches_++;
  return OkStatus();
}

Status NvLogJournal::Shutdown() {
  SimLockGuard guard(mu_);
  drain_all_ = true;
  drain_cv_.NotifyAll();
  while (!pending_.empty() || draining_) {
    idle_cv_.Wait(mu_);
  }
  drain_all_ = false;
  return OkStatus();
}

void NvLogJournal::StopActors() {
  {
    SimLockGuard guard(mu_);
    stopping_ = true;
    drain_cv_.NotifyAll();
  }
  stopped_.Wait();
}

}  // namespace ccnvme
