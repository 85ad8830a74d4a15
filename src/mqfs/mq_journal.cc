#include "src/mqfs/mq_journal.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/driver/host_costs.h"
#include "src/extfs/extfs.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

MqJournal::MqJournal(Simulator* sim, BlockLayer* blk, BufferCache* cache,
                     const FsLayout& layout, ExtFs* fs, const MqJournalOptions& options)
    : sim_(sim),
      blk_(blk),
      cache_(cache),
      fs_(fs),
      options_(options),
      ckpt_mu_(sim) {
  CCNVME_CHECK(blk->has_ccnvme()) << "MQFS requires the ccNVMe extension";
  for (const JournalArea& a : JournalAreasOf(JournalKind::kMultiQueue, layout)) {
    auto area = std::make_unique<Area>(sim);
    area->start = a.start;
    area->blocks = a.blocks;
    area->free = area->blocks - 1;
    areas_.push_back(std::move(area));
    trees_.push_back(std::make_unique<RadixTree<JhChain>>());
    tree_mu_.push_back(std::make_unique<SimMutex>(sim));
    pending_revocations_.emplace_back();
  }
}

Status MqJournal::Sync(const SyncOp& op, SyncMode mode) {
  if (op.data.empty() && op.metadata.empty()) {
    return OkStatus();
  }
  // With fewer areas than hardware queues, queues share areas.
  const uint32_t qid = blk_->current_queue();
  const uint32_t area_idx = qid % static_cast<uint32_t>(areas_.size());
  Area& area = *areas_[area_idx];
  CommittedTx committed;
  {
    // Journal-handle wait: another sync on this queue (or on a queue
    // sharing the area) is building its transaction.
    const uint64_t handle_begin = sim_->now();
    SimLockGuard build_guard(area.build_mu);
    const uint64_t handle_acquired = sim_->now();
    const uint64_t tx_id = fs_->AllocTxId();
    // The journal is the layer that learns the transaction id; publish it so
    // every downstream span of this request flow carries it.
    MutableTraceContext().tx_id = tx_id;
    if (Tracer* tracer = sim_->tracer()) {
      tracer->WaitEdgeEvent(WaitEdge::kJournalHandle, handle_begin, handle_acquired, area_idx);
    }
    CCNVME_ASSIGN_OR_RETURN(committed, BuildTx(op, area_idx, tx_id));
  }
  // build_mu is released at the atomicity point, once CommitTx has rung the
  // P-SQDB: the next transaction on this queue is staged while this one is
  // in flight. ccNVMe completes a device queue's transactions in order
  // (§4.4), but a striped volume reports a transaction durable only when its
  // slowest member is, so the two may become durable out of tx order;
  // FinishTx still moves them to the checkpoint list in order.
  for (auto& h : committed.overflow) {
    CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
  }
  if (mode == SyncMode::kFsync) {
    ScopedSpan wait_span(sim_->tracer(), TracePoint::kSyncWaitDurable);
    blk_->WaitTxDurable(committed.tx);
    Simulator::Sleep(kWakeupNs);
  }
  // kFatomic / kFdataatomic: the atomicity point has passed (the doorbell
  // was rung inside CommitTx); return immediately.
  return OkStatus();
}

Result<MqJournal::CommittedTx> MqJournal::BuildTx(const SyncOp& op, uint32_t area_idx,
                                                  uint64_t tx_id) {
  Area& area = *areas_[area_idx];
  Tracer* tracer = sim_->tracer();
  CCNVME_CHECK_LE(op.metadata.size(), DescriptorBlock::kMaxEntries)
      << "metadata set exceeds one descriptor (split the sync op)";
  const uint64_t needed = op.metadata.size() + 1;
  if (area.free < needed + area.blocks / 4) {
    CCNVME_RETURN_IF_ERROR(Checkpoint(area_idx, needed));
  }

  auto rec = std::make_shared<TxRecord>();
  rec->tx.tx_id = tx_id;
  rec->area = area_idx;
  area.committed.push_back(rec);
  // Atomicity window (Figure 14's "A"): journal entry to P-SQDB ring.
  if (tracer != nullptr) {
    tracer->BeginSpan(TracePoint::kSyncAtomic);
    tracer->BeginSpan(TracePoint::kSyncSubmitData);
  }

  // 1. In-place data blocks ride the same ccNVMe transaction (Figure 14's
  // iD). Pages stay frozen until their own CQE arrives. A transaction must
  // fit in the P-SQ ring, so very large data sets overflow to the ordinary
  // NVMe path (their durability is still awaited below; only atomicity
  // coverage is ring-bounded, and ordered-mode data was never atomic).
  constexpr size_t kMaxTxDataBlocks = 64;
  std::vector<NvmeDriver::RequestHandle> overflow;
  size_t data_in_tx = 0;
  for (const BlockBufPtr& buf : op.data) {
    const uint64_t frozen_begin = sim_->now();
    buf->lock.Lock();
    while (buf->writeback) {
      buf->wb_cv.Wait(buf->lock);
    }
    if (tracer != nullptr) {
      tracer->WaitEdgeEvent(WaitEdge::kPageFrozen, frozen_begin, sim_->now(), buf->block_no);
    }
    buf->BeginWriteback();
    buf->lock.Unlock();
    BlockBufPtr keep = buf;
    if (data_in_tx < kMaxTxDataBlocks) {
      data_in_tx++;
      blk_->SubmitTxWrite(tx_id, buf->block_no, &buf->data, [keep] { keep->EndWriteback(); });
    } else {
      overflow.push_back(
          blk_->SubmitWrite(buf->block_no, &buf->data, 0, [keep] { keep->EndWriteback(); }));
    }
    buf->dirty = false;
  }
  if (tracer != nullptr) tracer->EndSpan(TracePoint::kSyncSubmitData);

  // 2. Metadata blocks: shadow-page a copy (§5.3) or freeze the page until
  // durability (the ablation showing why shadow paging matters).
  DescriptorBlock desc;
  desc.tx_id = tx_id;
  {
    SimLockGuard guard(area.mu);
    desc.revoked.swap(pending_revocations_[area_idx]);
  }
  const uint64_t jd_off = [&] {
    SimLockGuard guard(area.mu);
    const uint64_t off = area.head;
    // Reserve the descriptor slot plus one slot per metadata block.
    uint64_t h = off;
    for (size_t i = 0; i < op.metadata.size() + 1; ++i) {
      h = NextOff(area, h);
    }
    area.head = h;
    area.free -= needed;
    return off;
  }();
  rec->tx.blocks_used = needed;

  // Without shadow paging, pages stay frozen until their journal write's
  // CQE arrives; freezing in ascending block order keeps concurrent queues
  // from deadlocking on shared metadata blocks (ABBA on the writeback
  // latch).
  std::vector<BlockBufPtr> metadata = op.metadata;
  if (!options_.shadow_paging) {
    std::sort(metadata.begin(), metadata.end(),
              [](const BlockBufPtr& a, const BlockBufPtr& b) {
                return a->block_no < b->block_no;
              });
  }

  uint64_t off = NextOff(area, jd_off);
  bool first_meta = true;
  for (const BlockBufPtr& buf : metadata) {
    // First metadata block is the inode-table block (S-iM), the rest are
    // parent/bitmap metadata (S-pM).
    ScopedSpan meta_span(tracer, first_meta ? TracePoint::kSyncSubmitInode
                                            : TracePoint::kSyncSubmitParent);
    const BlockNo journal_lba = area.start + off;
    const Buffer* payload = nullptr;
    std::shared_ptr<const Buffer> content;  // the version's bytes
    if (options_.shadow_paging) {
      const uint64_t frozen_begin = sim_->now();
      buf->lock.Lock();
      while (buf->writeback) {
        buf->wb_cv.Wait(buf->lock);
      }
      if (tracer != nullptr) {
        tracer->WaitEdgeEvent(WaitEdge::kPageFrozen, frozen_begin, sim_->now(), buf->block_no);
      }
      Simulator::Sleep(kFsMemcpy4kNs);
      content = std::make_shared<const Buffer>(buf->data);
      buf->lock.Unlock();
      payload = content.get();
    } else {
      // No shadow paging: the page itself is the journal-write source, so
      // it stays frozen until the member's CQE arrives (the serialization
      // §5.3's shadow paging removes).
      const uint64_t frozen_begin = sim_->now();
      buf->lock.Lock();
      while (buf->writeback) {
        buf->wb_cv.Wait(buf->lock);
      }
      if (tracer != nullptr) {
        tracer->WaitEdgeEvent(WaitEdge::kPageFrozen, frozen_begin, sim_->now(), buf->block_no);
      }
      buf->BeginWriteback();
      buf->lock.Unlock();
      payload = &buf->data;
      content = std::make_shared<const Buffer>(buf->data);  // for the checkpoint
    }
    buf->dirty = false;
    desc.entries.push_back(JournalEntry{buf->block_no, Fnv1a(*payload)});
    rec->tx.writes.push_back(LoggedWrite{buf->block_no, tx_id, std::move(content)});

    // Publish the version in the home block's radix tree (Figure 6).
    const size_t t = TreeIndex(buf->block_no);
    SimLockGuard tree_guard(*tree_mu_[t]);
    JhChain& chain = trees_[t]->GetOrCreate(buf->block_no);
    chain.versions.push_back(JhVersion{tx_id, journal_lba, area_idx, JhState::kLog});

    if (options_.shadow_paging) {
      blk_->SubmitTxWrite(tx_id, journal_lba, payload);
    } else {
      BlockBufPtr keep = buf;
      blk_->SubmitTxWrite(tx_id, journal_lba, payload, [keep] { keep->EndWriteback(); });
    }
    off = NextOff(area, off);
    first_meta = false;
  }
  rec->tx.end_offset = area.head;

  // 3. The descriptor commits the transaction (REQ_TX_COMMIT); no separate
  // commit record is needed — the P-SQDB ring plays that role.
  if (tracer != nullptr) tracer->BeginSpan(TracePoint::kSyncSubmitDesc);
  Simulator::Sleep(kFsJournalDescNs);
  rec->jd = std::make_shared<Buffer>(kFsBlockSize, 0);
  desc.Serialize(*rec->jd);
  if (Metrics* m = sim_->metrics()) {
    // Commit-record-after-blocks: every in-tx member staged above must have
    // reached the block layer before the descriptor commits the tx.
    m->monitors().ExpectTxMembers(tx_id, data_in_tx + metadata.size());
  }
  auto self = this;
  CommittedTx committed;
  committed.tx = blk_->CommitTx(tx_id, area.start + jd_off, rec->jd.get(),
                                [self, rec] { self->FinishTx(rec); });
  committed.overflow = std::move(overflow);
  transactions_++;
  if (tracer != nullptr) {
    tracer->EndSpan(TracePoint::kSyncSubmitDesc);
    tracer->EndSpan(TracePoint::kSyncAtomic);
  }
  return committed;
}

void MqJournal::FinishTx(const std::shared_ptr<TxRecord>& rec) {
  rec->durable = true;
  Area& area = *areas_[rec->area];
  // Only a durable prefix of the area's commit order moves to the checkpoint
  // list: queues sharing an area complete out of order, and so do two
  // transactions in flight on one queue of a striped volume (one spanning
  // two members can become durable after a later one on one member). A
  // checkpoint must never advance the area's start past a transaction still
  // in flight.
  while (!area.committed.empty() && area.committed.front()->durable) {
    const std::shared_ptr<TxRecord> done = std::move(area.committed.front());
    area.committed.pop_front();
    area.ckpt.push_back(std::move(done->tx));
    for (LoggedWrite& w : area.ckpt.back().writes) {
      ListVersion(w);
    }
  }
  if (area.committed.empty()) {
    area.quiesced.NotifyAll();
  }
}

// Keeps one host copy per home block on the checkpoint lists, that of the
// newest anchored version. Dropping an older listed version's bytes is safe
// once a newer version V of its block anchors: V stays listed until a
// checkpoint pops it, which pops the older one too (then V is the newer
// popped one), and until then V's chain entry lies beyond any horizon that
// pops the older one, so Checkpoint finds the block superseded. Shutdown
// writes the newest listed version, and V outranks it. A revocation clears
// the chain but also revokes every version it held. A version that is
// durable but held behind an in-flight transaction of its area is not
// listed, so it anchors nothing yet.
void MqJournal::ListVersion(LoggedWrite& w) {
  JhChain* chain = trees_[TreeIndex(w.home)]->Find(w.home);
  if (chain == nullptr) {
    return;  // revoked, or pruned while in flight: keeps its bytes
  }
  bool anchored = false;
  const JhVersion* newest = nullptr;  // the newest other anchored version
  for (JhVersion& v : chain->versions) {
    if (v.tx_id == w.tx_id) {
      v.state = JhState::kLogged;
      anchored = v.tx_id > popped_horizon_;
    } else if (v.state == JhState::kLogged && v.tx_id > popped_horizon_ &&
               (newest == nullptr || v.tx_id > newest->tx_id)) {
      newest = &v;
    }
  }
  if (newest == nullptr) {
    return;
  }
  if (newest->tx_id > w.tx_id) {
    w.content.reset();  // arrived after a newer version
  } else if (anchored) {
    // Every older anchored version already dropped its bytes to |newest|.
    ListedWrite(*newest, w.home).content.reset();
  }
}

MqJournal::LoggedWrite& MqJournal::ListedWrite(const JhVersion& v, BlockNo home) {
  // An area's list is in commit order, which is its tx order.
  std::deque<LoggedTx>& list = areas_[v.area]->ckpt;
  const auto tx = std::lower_bound(
      list.begin(), list.end(), v.tx_id,
      [](const LoggedTx& logged, uint64_t tx_id) { return logged.tx_id < tx_id; });
  LoggedWrite* found = nullptr;
  if (tx != list.end() && tx->tx_id == v.tx_id) {
    for (LoggedWrite& w : tx->writes) {
      if (w.home == home) {
        found = &w;
      }
    }
  }
  CCNVME_CHECK(found != nullptr) << "anchored version " << v.tx_id << " of block " << home
                                 << " is not on area " << v.area << "'s checkpoint list";
  return *found;
}

void MqJournal::RevokeBlock(BlockNo block) {
  const uint32_t area_idx =
      blk_->current_queue() % static_cast<uint32_t>(areas_.size());
  {
    // Selective revocation (§5.4).
    const size_t t = TreeIndex(block);
    SimLockGuard guard(*tree_mu_[t]);
    JhChain* chain = trees_[t]->Find(block);
    if (chain != nullptr) {
      for (const JhVersion& v : chain->versions) {
        if (v.state == JhState::kChp) {
          // Case 1: a stale copy is being checkpointed right now. Cancel the
          // revocation; the block's next write regresses to data journaling
          // so a newer journaled version supersedes the stale in-place write.
          force_journal_.insert(block);
          revocations_cancelled_++;
          return;
        }
      }
      chain->versions.clear();  // case 2: drop stale versions
    }
  }
  // Accept the revocation: recorded in the next descriptor and honoured by
  // checkpoint and recovery.
  const uint64_t rev_tx = fs_->AllocTxId();
  revoked_[block] = std::max(revoked_[block], rev_tx);
  SimLockGuard guard(areas_[area_idx]->mu);
  pending_revocations_[area_idx].push_back(block);
}

bool MqJournal::ForceJournalData(BlockNo block) {
  return force_journal_.find(block) != force_journal_.end();
}

Status MqJournal::Checkpoint(uint32_t needy, uint64_t needed) {
  ScopedSpan span(sim_->tracer(), TracePoint::kJournalCheckpoint);
  SimLockGuard guard(ckpt_mu_);
  Area& target = *areas_[needy];
  if (target.free >= needed + target.blocks / 8) {
    return OkStatus();  // someone else freed space while we waited
  }

  // Pick a tx-id horizon that frees enough space in the needy area.
  uint64_t horizon = 0;
  {
    uint64_t freed = 0;
    for (const LoggedTx& tx : target.ckpt) {
      freed += tx.blocks_used;
      horizon = tx.tx_id;
      if (target.free + freed >= needed + target.blocks / 2) {
        break;
      }
    }
  }
  if (horizon == 0) {
    // Nothing checkpointable yet: transactions still in flight. Wait for
    // the device to drain some.
    while (target.ckpt.empty() && !target.committed.empty()) {
      SimLockGuard amu(target.mu);
      target.quiesced.WaitFor(target.mu, 100'000);
    }
    if (target.ckpt.empty()) {
      return OutOfSpace("journal area exhausted with nothing checkpointable");
    }
    horizon = target.ckpt.front().tx_id;
  }

  // Collect every area's logged transactions up to the horizon; replaying
  // by horizon keeps "no journal copy older than an in-place write" true
  // across areas, which recovery's replay-by-TxID relies on.
  std::map<BlockNo, LoggedWrite> newest;
  std::vector<std::pair<Area*, std::vector<LoggedTx>>> popped;
  for (auto& area_ptr : areas_) {
    Area& area = *area_ptr;
    std::vector<LoggedTx> taken;
    while (!area.ckpt.empty() && area.ckpt.front().tx_id <= horizon) {
      taken.push_back(std::move(area.ckpt.front()));
      area.ckpt.pop_front();
    }
    if (!taken.empty()) {
      popped.emplace_back(&area, std::move(taken));
    }
  }
  popped_horizon_ = std::max(popped_horizon_, horizon);
  for (auto& [area, txs] : popped) {
    (void)area;
    for (const LoggedTx& tx : txs) {
      KeepNewest(tx, &newest);
    }
  }

  // Write back the newest version of each block — unless an even newer
  // version is still in some log (it will be checkpointed later), or the
  // block was revoked after this copy.
  std::vector<NvmeDriver::RequestHandle> handles;
  for (auto& [home, pw] : newest) {
    if (Revoked(revoked_, home, pw.tx_id)) {
      continue;
    }
    const size_t t = TreeIndex(home);
    bool superseded = false;
    {
      SimLockGuard tree_guard(*tree_mu_[t]);
      JhChain* chain = trees_[t]->Find(home);
      if (chain != nullptr) {
        for (JhVersion& v : chain->versions) {
          if (v.tx_id > horizon) {
            superseded = true;
          } else if (v.tx_id == pw.tx_id) {
            v.state = JhState::kChp;  // being checkpointed (Figure 6)
          }
        }
      }
    }
    if (superseded) {
      continue;
    }
    CCNVME_CHECK(pw.content != nullptr) << "checkpoint reached a dropped version of " << home;
    handles.push_back(blk_->SubmitWrite(home, pw.content.get(), 0));
  }
  for (auto& h : handles) {
    CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
  }
  CCNVME_RETURN_IF_ERROR(blk_->FlushSync());

  // Drop checkpointed versions from the trees and clear case-1 flags whose
  // stale copies are gone.
  for (auto& [home, pw] : newest) {
    (void)pw;
    const size_t t = TreeIndex(home);
    SimLockGuard tree_guard(*tree_mu_[t]);
    JhChain* chain = trees_[t]->Find(home);
    if (chain != nullptr) {
      auto& v = chain->versions;
      v.erase(std::remove_if(v.begin(), v.end(),
                             [&](const JhVersion& jv) { return jv.tx_id <= horizon; }),
              v.end());
      if (v.empty()) {
        trees_[t]->Erase(home);
        force_journal_.erase(home);
      }
    } else {
      force_journal_.erase(home);
    }
  }

  // Advance each touched area's on-disk superblock.
  for (auto& [area, txs] : popped) {
    for (const LoggedTx& tx : txs) {
      area->free += tx.blocks_used;
      area->asb.start_offset = tx.end_offset;
      area->asb.cleared_txid = std::max(area->asb.cleared_txid, tx.tx_id);
    }
    CCNVME_RETURN_IF_ERROR(WriteAreaSuper(*area));
  }
  checkpoints_++;
  return OkStatus();
}

void MqJournal::KeepNewest(const LoggedTx& tx, std::map<BlockNo, LoggedWrite>* newest) {
  for (const LoggedWrite& w : tx.writes) {
    auto [kept, inserted] = newest->try_emplace(w.home, w);
    if (!inserted && kept->second.tx_id < w.tx_id) {
      kept->second = w;
    }
  }
}

std::map<BlockNo, MqJournal::ListedBlock> MqJournal::ListedBlocks() const {
  std::map<BlockNo, ListedBlock> blocks;
  for (const auto& area : areas_) {
    for (const LoggedTx& tx : area->ckpt) {
      for (const LoggedWrite& w : tx.writes) {
        ListedBlock& b = blocks[w.home];
        b.versions++;
        b.copies += w.content != nullptr ? 1 : 0;
      }
    }
  }
  return blocks;
}

Status MqJournal::WriteAreaSuper(Area& area) {
  Buffer buf(kFsBlockSize, 0);
  area.asb.Serialize(buf);
  return blk_->WriteSync(area.start, buf, kBioFua);
}

Status MqJournal::Recover() {
  ScopedSpan span(sim_->tracer(), TracePoint::kJournalRecover);
  // §4.4: the driver captured each queue's P-SQ window [P-SQ-head, P-SQDB)
  // at bring-up. Transactions NOT in the window completed before the crash
  // — the device guarantees their blocks reached media, so recovery trusts
  // them without re-hashing content. Only in-window ("in-doubt")
  // transactions are validated against the descriptor's per-block content
  // checksums.
  std::set<uint64_t> window;
  for (const auto& req : blk_->RecoveredWindow()) {
    window.insert(req.tx_id);
  }
  const std::set<uint64_t> in_doubt =
      options_.test_skip_psq_window_scan ? std::set<uint64_t>{} : window;
  if (Metrics* m = sim_->metrics()) {
    // Recovery must treat every transaction in the recovered P-SQ window
    // as in-doubt; ignoring any of them trusts unvalidated blocks.
    m->monitors().OnRecoveryWindowScan(window.size(), in_doubt.size());
  }

  const JournalBlockReader read = [this](BlockNo lba, Buffer* out) {
    return blk_->ReadSync(lba, 1, out);
  };
  std::vector<AreaScan> scans;
  for (auto& area_ptr : areas_) {
    Area& area = *area_ptr;
    CCNVME_ASSIGN_OR_RETURN(
        AreaScan scan, ScanJournalArea(read, {area.start, area.blocks},
                                       JournalSeal::kDescriptorChecksums, &in_doubt));
    area.asb.start_offset = scan.end_offset;
    area.asb.cleared_txid = scan.last_txid;
    area.head = scan.end_offset;
    area.free = area.blocks - 1;
    scans.push_back(std::move(scan));
  }
  // Global order across queues comes from the transaction IDs (§4.4):
  // all areas' transactions replay in one sequence (§5.5).
  CCNVME_RETURN_IF_ERROR(ReplayJournal(scans, read, [this](BlockNo lba, const Buffer& data) {
    return blk_->WriteSync(lba, data);
  }));
  CCNVME_RETURN_IF_ERROR(blk_->FlushSync());
  for (auto& area_ptr : areas_) {
    CCNVME_RETURN_IF_ERROR(WriteAreaSuper(*area_ptr));
  }
  return OkStatus();
}

Status MqJournal::Shutdown() {
  // Graceful shutdown (§5.5): wait for in-progress transactions so nothing
  // depends on ccNVMe state, then checkpoint every area.
  for (auto& area_ptr : areas_) {
    Area& area = *area_ptr;
    while (!area.committed.empty()) {
      SimLockGuard guard(area.mu);
      area.quiesced.WaitFor(area.mu, 100'000);
    }
  }
  SimLockGuard guard(ckpt_mu_);
  std::vector<NvmeDriver::RequestHandle> handles;
  std::map<BlockNo, LoggedWrite> newest;
  for (auto& area_ptr : areas_) {
    for (const LoggedTx& tx : area_ptr->ckpt) {
      KeepNewest(tx, &newest);
    }
  }
  for (auto& [home, w] : newest) {
    if (!Revoked(revoked_, home, w.tx_id)) {
      CCNVME_CHECK(w.content != nullptr) << "shutdown reached a dropped version of " << home;
      handles.push_back(blk_->SubmitWrite(home, w.content.get(), 0));
    }
  }
  for (auto& h : handles) {
    CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
  }
  CCNVME_RETURN_IF_ERROR(blk_->FlushSync());
  for (auto& area_ptr : areas_) {
    Area& area = *area_ptr;
    for (const LoggedTx& tx : area.ckpt) {
      area.free += tx.blocks_used;
      area.asb.start_offset = tx.end_offset;
      area.asb.cleared_txid = std::max(area.asb.cleared_txid, tx.tx_id);
    }
    area.ckpt.clear();
    CCNVME_RETURN_IF_ERROR(WriteAreaSuper(area));
  }
  for (auto& tree : trees_) {
    // All versions checkpointed.
    std::vector<uint64_t> keys;
    tree->ForEach([&](uint64_t key, JhChain&) { keys.push_back(key); });
    for (uint64_t k : keys) {
      tree->Erase(k);
    }
  }
  force_journal_.clear();
  return OkStatus();
}

}  // namespace ccnvme
