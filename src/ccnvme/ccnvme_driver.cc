#include "src/ccnvme/ccnvme_driver.h"

#include <utility>

#include "src/common/logging.h"
#include "src/driver/host_costs.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

CcNvmeDriver::CcNvmeDriver(Simulator* sim, PcieLink* link, NvmeController* controller,
                           const CcNvmeOptions& options)
    : sim_(sim), link_(link), controller_(controller), options_(options) {
  const uint16_t depth = controller->config().queue_depth;
  CCNVME_CHECK_LE(PmrQueueBase(options.num_queues, depth), controller->pmr().size())
      << "P-SQs do not fit in the PMR";
  // Capture the unfinished window left behind by the previous boot BEFORE
  // the per-queue reinitialization below zeroes the persistent doorbells —
  // the upper layer's recovery consumes exactly this window (§4.4).
  recovered_window_ = ScanUnfinished(controller->pmr(), options_.num_queues, depth);
  for (uint16_t qid = 0; qid < options_.num_queues; ++qid) {
    auto q = std::make_unique<Queue>();
    Queue* raw = q.get();
    q->qid = qid;
    q->pmr_base = PmrQueueBase(qid, depth);
    q->wc = std::make_unique<WcBuffer>(link);
    q->irq_pending = std::make_unique<SimSemaphore>(sim, 0);
    q->submit_mu = std::make_unique<SimMutex>(sim);
    q->slot_available = std::make_unique<SimCondVar>(sim);
    q->qp = controller->CreateIoQueuePair(
        qid, /*sq_in_pmr=*/true, q->pmr_base,
        /*irq_handler=*/[raw] { raw->irq_pending->Release(); });
    q->cid_to_tx.resize(q->qp->depth);
    q->cid_callbacks.resize(q->qp->depth);
    q->cid_req.resize(q->qp->depth, 0);
    q->cid_staged_ns.resize(q->qp->depth, 0);
    q->cid_tx.resize(q->qp->depth, 0);
    for (uint16_t cid = 0; cid < q->qp->depth; ++cid) {
      q->free_cids.push_back(cid);
    }
    // Fresh queues: zero the persistent doorbell and head.
    controller->pmr().WriteU32(DoorbellOffset(*q), 0);
    controller->pmr().WriteU32(HeadOffset(*q), 0);
    queues_.push_back(std::move(q));
    sim->Spawn("ccnvme_bh" + std::to_string(qid), [this, raw] { BottomHalfLoop(raw); });
  }
}

size_t CcNvmeDriver::DoorbellOffset(const Queue& q) const {
  return q.pmr_base + static_cast<size_t>(q.qp->depth) * kSqeSize;
}

size_t CcNvmeDriver::HeadOffset(const Queue& q) const { return DoorbellOffset(q) + 4; }

void CcNvmeDriver::FlushAndRing(Queue& q, uint64_t tx_id) {
  q.wc->FlushPersistent();
  if (Tracer* tracer = sim_->tracer()) {
    tracer->InstantWith(TracePoint::kPsqFence,
                        {CurrentTraceContext().req_id, tx_id, device_id_});
    tracer->InstantWith(TracePoint::kPsqDoorbell,
                        {CurrentTraceContext().req_id, tx_id, device_id_}, q.sq_tail);
  }
  RecordPmr(BioOp::kPmrFence, q.qid, 0, {}, 0, tx_id);
  if (Metrics* m = sim_->metrics()) {
    // At the ring the WC buffer must already be persistent (flush-before-
    // doorbell) and the P-SQDB must advance by exactly the staged SQEs.
    m->monitors().OnDoorbellRing(device_id_, q.qid, q.qp->depth, q.last_rung_tail,
                                 q.sq_tail, q.psq_head, q.unrung_cids.size(),
                                 q.wc->pending_bytes());
  }
  PmrStoreU32(q, BioOp::kPmrDoorbell, DoorbellOffset(q), q.sq_tail, tx_id);
  link_->MmioWrite(4);
  controller_->RingSqDoorbell(q.qp, q.sq_tail);
  if (Tracer* tracer = sim_->tracer()) {
    // Each staged SQE was invisible to the device from the end of its WC
    // store until this doorbell — the coalescing window that transaction-
    // aware MMIO trades per-request doorbells for.
    const uint64_t rung_ns = sim_->now();
    for (uint16_t cid : q.unrung_cids) {
      tracer->WaitEdgeWith(WaitEdge::kDoorbellCoalesce,
                           {q.cid_req[cid], q.cid_tx[cid], device_id_},
                           q.cid_staged_ns[cid], rung_ns, cid);
    }
  }
  q.last_rung_tail = q.sq_tail;
  q.unrung_cids.clear();
}

void CcNvmeDriver::RecordPmr(BioOp op, uint16_t qid, size_t offset,
                             std::span<const uint8_t> bytes, uint32_t flags, uint64_t tx_id) {
  if (!recorder_) {
    return;
  }
  BioEvent ev;
  ev.op = op;
  ev.lba = offset;
  ev.flags = flags;
  ev.tx_id = tx_id;
  ev.qid = qid;
  ev.device = device_id_;
  ev.data.assign(bytes.begin(), bytes.end());
  recorder_(ev);
}

void CcNvmeDriver::PmrStoreU32(Queue& q, BioOp op, size_t offset, uint32_t value,
                               uint64_t tx_id) {
  controller_->pmr().WriteU32(offset, value);
  uint8_t raw[4];
  PutU32(raw, 0, value);
  RecordPmr(op, q.qid, offset, raw, /*flags=*/0, tx_id);
}

CcNvmeDriver::Queue& CcNvmeDriver::GetQueue(uint16_t qid) {
  CCNVME_CHECK_LT(qid, queues_.size());
  return *queues_[qid];
}

uint16_t CcNvmeDriver::StageCommand(Queue& q, NvmeCommand cmd, const Buffer* data) {
  Tracer* tracer = sim_->tracer();
  ScopedSpan span(tracer, TracePoint::kTxStage, cmd.opcode);
  // Stamp the submitter's trace id into the SQE unconditionally so the PMR
  // bytes do not depend on whether a tracer is attached.
  cmd.trace_req = CurrentTraceContext().req_id;
  SimLockGuard guard(*q.submit_mu);
  // The P-SQ window [P-SQ-head, tail) must stay intact for recovery, so a
  // slot is reusable only after P-SQ-head passes it.
  const uint64_t full_since = sim_->now();
  while (q.free_cids.empty() || q.qp->SlotAfter(q.sq_tail) == q.psq_head) {
    q.slot_available->Wait(*q.submit_mu);
  }
  if (tracer != nullptr) {
    tracer->WaitEdgeWith(WaitEdge::kSqFull, {cmd.trace_req, cmd.tx_id, device_id_},
                         full_since, sim_->now(), q.qid);
  }
  const uint16_t cid = q.free_cids.front();
  q.free_cids.pop_front();
  cmd.cid = cid;
  q.cid_req[cid] = cmd.trace_req;
  q.qp->data[cid].write_data = data;
  q.unrung_cids.push_back(cid);

  const uint16_t slot = q.sq_tail;
  q.sq_tail = q.qp->SlotAfter(slot);

  // Store the SQE into the PMR through the write-combining buffer: content
  // lands now; the burst + persistence fence are deferred to commit time
  // under transaction-aware MMIO.
  uint8_t raw[kSqeSize];
  cmd.Serialize(raw);
  controller_->pmr().Write(q.pmr_base + static_cast<size_t>(slot) * kSqeSize,
                           std::span<const uint8_t>(raw, kSqeSize));
  q.wc->Store(kSqeSize);
  q.cid_staged_ns[cid] = sim_->now();
  q.cid_tx[cid] = cmd.tx_id;
  if (tracer != nullptr) {
    tracer->InstantWith(TracePoint::kPsqStore, {cmd.trace_req, cmd.tx_id},
                        q.pmr_base + static_cast<size_t>(slot) * kSqeSize);
  }
  RecordPmr(BioOp::kPmrWrite, q.qid, q.pmr_base + static_cast<size_t>(slot) * kSqeSize,
            std::span<const uint8_t>(raw, kSqeSize), kBioPmrWc, cmd.tx_id);

  if (!options_.tx_aware_mmio) {
    // Naive per-request mode: flush and ring for every request.
    FlushAndRing(q, cmd.tx_id);
  }
  return cid;
}

void CcNvmeDriver::SubmitTx(uint16_t qid, uint64_t tx_id, uint64_t slba, const Buffer* data,
                            std::function<void()> on_complete) {
  CCNVME_CHECK(data != nullptr && !data->empty());
  CCNVME_CHECK_EQ(data->size() % kLbaSize, 0u);
  Queue& q = GetQueue(qid);
  Simulator::Sleep(kCcNvmeStageNs);

  if (q.open_tx == nullptr) {
    q.open_tx = std::make_shared<Transaction>(sim_);
    q.open_tx->tx_id = tx_id;
  }
  CCNVME_CHECK_EQ(q.open_tx->tx_id, tx_id)
      << "a transaction must be committed before the next one opens on a queue";

  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kWrite);
  cmd.slba = slba;
  cmd.set_num_blocks(static_cast<uint32_t>(data->size() / kLbaSize));
  cmd.cdw12 |= kCdw12ReqTx;
  cmd.tx_id = tx_id;

  const uint16_t cid = StageCommand(q, cmd, data);
  q.cid_to_tx[cid] = q.open_tx;
  q.cid_callbacks[cid] = std::move(on_complete);
  q.open_tx->outstanding++;

  if (options_.tx_aware_mmio && options_.doorbell_coalesce_limit > 0 &&
      q.unrung_cids.size() >= options_.doorbell_coalesce_limit) {
    // Bounded coalescing window: make the staged members visible now rather
    // than at commit. The device may start executing them while the host is
    // still building the rest of the transaction.
    FlushAndRing(q, tx_id);
  }
}

CcNvmeDriver::TxHandle CcNvmeDriver::CommitTx(uint16_t qid, uint64_t tx_id, uint64_t slba,
                                              const Buffer* data,
                                              std::function<void()> on_durable) {
  CCNVME_CHECK(data != nullptr && !data->empty());
  Queue& q = GetQueue(qid);
  Tracer* tracer = sim_->tracer();
  ScopedSpan span(tracer, TracePoint::kTxCommit);
  Simulator::Sleep(kCcNvmeStageNs);

  if (q.open_tx == nullptr) {
    q.open_tx = std::make_shared<Transaction>(sim_);
    q.open_tx->tx_id = tx_id;
  }
  TxHandle tx = q.open_tx;
  CCNVME_CHECK_EQ(tx->tx_id, tx_id);
  if (on_durable) {
    tx->on_durable.push_back(std::move(on_durable));
  }

  const SsdConfig& ssd = controller_->ssd().config();
  const bool needs_flush = ssd.volatile_cache && !ssd.power_loss_protection;
  if (needs_flush) {
    // §4.2: the commit request implicitly flushes the device, "by issuing a
    // flush command first and setting the FUA bit in the I/O command".
    NvmeCommand flush;
    flush.opcode = static_cast<uint8_t>(NvmeOpcode::kFlush);
    flush.cdw12 |= kCdw12ReqTx;
    flush.tx_id = tx_id;
    const uint16_t fcid = StageCommand(q, flush, nullptr);
    q.cid_to_tx[fcid] = tx;
    tx->outstanding++;
  }

  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kWrite);
  cmd.slba = slba;
  cmd.set_num_blocks(static_cast<uint32_t>(data->size() / kLbaSize));
  cmd.cdw12 |= kCdw12ReqTx | kCdw12ReqTxCommit;
  if (needs_flush) {
    cmd.cdw12 |= kCdw12Fua;
  }
  cmd.tx_id = tx_id;
  const uint16_t cid = StageCommand(q, cmd, data);
  q.cid_to_tx[cid] = tx;
  tx->outstanding++;

  if (options_.tx_aware_mmio) {
    // Transaction-aware MMIO & doorbell: one persistence flush and one
    // doorbell ring for the whole transaction (Figure 4(b)).
    FlushAndRing(q, tx_id);
  }

  tx->committed = true;
  tx->end_slot = q.sq_tail;
  q.inflight_txs.push_back(tx);
  q.open_tx = nullptr;
  // Atomicity point: P-SQ entries are persistent and the persistent
  // doorbell has been rung. A crash from here on recovers all-or-nothing
  // with "all" available once the device drains the queue.
  tx->atomic_at_ns = sim_->now();
  if (Metrics* m = sim_->metrics()) {
    m->monitors().OnTxCommitted(device_id_, q.qid, tx_id);
  }
  if (tracer != nullptr) {
    tracer->InstantWith(TracePoint::kTxAtomic,
                        {CurrentTraceContext().req_id, tx_id, device_id_});
  }
  return tx;
}

CcNvmeDriver::TxHandle CcNvmeDriver::SealTx(uint16_t qid, uint64_t tx_id,
                                            std::function<void()> on_durable) {
  Queue& q = GetQueue(qid);
  Tracer* tracer = sim_->tracer();
  Simulator::Sleep(kCcNvmeStageNs);

  CCNVME_CHECK(q.open_tx != nullptr) << "SealTx with no staged requests on queue " << qid;
  TxHandle tx = q.open_tx;
  CCNVME_CHECK_EQ(tx->tx_id, tx_id);
  if (on_durable) {
    tx->on_durable.push_back(std::move(on_durable));
  }

  const SsdConfig& ssd = controller_->ssd().config();
  if (ssd.volatile_cache && !ssd.power_loss_protection) {
    // No commit record to carry the FUA bit here, so a flush command rides
    // with the members: the sealed transaction's in-order completion then
    // still implies its slices are durable (§4.2 applied per member).
    NvmeCommand flush;
    flush.opcode = static_cast<uint8_t>(NvmeOpcode::kFlush);
    flush.cdw12 |= kCdw12ReqTx;
    flush.tx_id = tx_id;
    const uint16_t fcid = StageCommand(q, flush, nullptr);
    q.cid_to_tx[fcid] = tx;
    tx->outstanding++;
  }

  if (options_.tx_aware_mmio) {
    FlushAndRing(q, tx_id);
  }
  tx->committed = true;
  tx->end_slot = q.sq_tail;
  q.inflight_txs.push_back(tx);
  q.open_tx = nullptr;
  tx->atomic_at_ns = sim_->now();
  if (Metrics* m = sim_->metrics()) {
    m->monitors().OnTxCommitted(device_id_, q.qid, tx_id);
  }
  if (tracer != nullptr) {
    tracer->InstantWith(TracePoint::kTxAtomic,
                        {CurrentTraceContext().req_id, tx_id, device_id_});
  }
  return tx;
}

void CcNvmeDriver::AbortOpenTx(uint16_t qid) {
  Queue& q = GetQueue(qid);
  if (q.open_tx == nullptr) {
    return;
  }
  for (uint16_t cid : q.unrung_cids) {
    q.cid_to_tx[cid] = nullptr;
    q.cid_callbacks[cid] = nullptr;
    q.cid_req[cid] = 0;
    q.qp->data[cid] = IoQueuePair::DataRef{};
    q.free_cids.push_back(cid);
  }
  q.unrung_cids.clear();
  q.sq_tail = q.last_rung_tail;
  q.wc->Discard();
  q.open_tx = nullptr;
  q.slot_available->NotifyAll();
}

void CcNvmeDriver::WaitDurable(const TxHandle& tx) {
  const uint64_t begin = sim_->now();
  tx->durable.Wait();
  if (Tracer* tracer = sim_->tracer()) {
    tracer->WaitEdgeWith(WaitEdge::kTxDurable,
                         {CurrentTraceContext().req_id, tx->tx_id, device_id_}, begin,
                         sim_->now());
  }
}

void CcNvmeDriver::CompleteReadyTransactions(Queue& q) {
  bool advanced = false;
  if (options_.in_order_completion) {
    while (!q.inflight_txs.empty()) {
      TxHandle& front = q.inflight_txs.front();
      if (!front->committed || front->outstanding != 0) {
        break;
      }
      TxHandle tx = front;
      q.inflight_txs.pop_front();
      // Chain the completion doorbell: persistently advance P-SQ-head, then
      // ring the CQDB (§4.4). The head store is uncached: durable the moment
      // it issues, which is what lets recovery trust everything behind it.
      if (Metrics* m = sim_->metrics()) {
        m->monitors().OnTxCompleted(device_id_, q.qid, tx->tx_id,
                                    /*front_of_queue=*/true);
        m->monitors().OnHeadAdvance(device_id_, q.qid, q.qp->depth, q.psq_head,
                                    tx->end_slot, q.last_rung_tail);
      }
      q.psq_head = tx->end_slot;
      if (Tracer* t = sim_->tracer()) {
        t->InstantWith(TracePoint::kPsqHead, {0, tx->tx_id, device_id_}, q.psq_head);
      }
      PmrStoreU32(q, BioOp::kPmrWrite, HeadOffset(q), q.psq_head, tx->tx_id);
      link_->MmioWrite(4);
      link_->MmioWrite(4);
      controller_->RingCqDoorbell(q.qp, q.cq_head);
      advanced = true;
      tx->durable_at_ns = sim_->now();
      if (Tracer* t = sim_->tracer()) {
        t->InstantWith(TracePoint::kTxDurable, {0, tx->tx_id, device_id_});
      }
      transactions_completed_++;
      // Moved out first: the transaction must not keep what the callbacks
      // hold (callers capture state that owns this very transaction).
      for (auto& cb : std::exchange(tx->on_durable, {})) {
        cb();
      }
      tx->durable.Signal();
    }
  } else {
    // Ablation: complete transactions as soon as their own requests finish,
    // ignoring queue order. Breaks the recovery window contract.
    for (auto it = q.inflight_txs.begin(); it != q.inflight_txs.end();) {
      TxHandle tx = *it;
      if (tx->committed && tx->outstanding == 0) {
        const bool was_front = it == q.inflight_txs.begin();
        if (Metrics* m = sim_->metrics()) {
          m->monitors().OnTxCompleted(device_id_, q.qid, tx->tx_id, was_front);
        }
        it = q.inflight_txs.erase(it);
        if (q.inflight_txs.empty()) {
          q.psq_head = tx->end_slot;
          PmrStoreU32(q, BioOp::kPmrWrite, HeadOffset(q), q.psq_head, tx->tx_id);
          link_->MmioWrite(4);
        }
        link_->MmioWrite(4);
        controller_->RingCqDoorbell(q.qp, q.cq_head);
        advanced = true;
        tx->durable_at_ns = sim_->now();
        transactions_completed_++;
        for (auto& cb : std::exchange(tx->on_durable, {})) {
          cb();
        }
        tx->durable.Signal();
      } else {
        ++it;
      }
    }
  }
  if (advanced) {
    q.slot_available->NotifyAll();
  }
}

void CcNvmeDriver::BottomHalfLoop(Queue* q) {
  IoQueuePair* qp = q->qp;
  for (;;) {
    q->irq_pending->Acquire();
    while (q->irq_pending->TryAcquire()) {
    }
    Simulator::Sleep(kIrqContextSwitchNs);

    for (;;) {
      const size_t off = static_cast<size_t>(q->cq_head) * kCqeSize;
      const NvmeCompletion cqe = NvmeCompletion::Parse(
          std::span<const uint8_t>(qp->host_cq).subspan(off, kCqeSize));
      if (cqe.phase != q->cq_phase) {
        break;
      }
      Simulator::Sleep(kIrqPerCqeNs);
      TxHandle tx = q->cid_to_tx[cqe.cid];
      CCNVME_CHECK(tx != nullptr) << "ccNVMe completion for idle cid " << cqe.cid;
      ScopedTraceContext trace_ctx({q->cid_req[cqe.cid], tx->tx_id, device_id_});
      if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kCqeHandled, cqe.cid);
      q->cid_to_tx[cqe.cid] = nullptr;
      qp->data[cqe.cid] = IoQueuePair::DataRef{};
      q->free_cids.push_back(cqe.cid);
      tx->outstanding--;
      if (q->cid_callbacks[cqe.cid]) {
        q->cid_callbacks[cqe.cid]();
        q->cid_callbacks[cqe.cid] = nullptr;
      }

      q->cq_head = qp->SlotAfter(q->cq_head);
      if (q->cq_head == 0) {
        q->cq_phase = !q->cq_phase;
      }
    }
    CompleteReadyTransactions(*q);
  }
}

std::vector<CcNvmeDriver::UnfinishedRequest> CcNvmeDriver::ScanUnfinished(
    const Pmr& pmr, uint16_t num_queues, uint16_t queue_depth) {
  std::vector<UnfinishedRequest> out;
  for (uint16_t qid = 0; qid < num_queues; ++qid) {
    const size_t base = PmrQueueBase(qid, queue_depth);
    const size_t db_off = base + static_cast<size_t>(queue_depth) * kSqeSize;
    const uint32_t tail = pmr.ReadU32(db_off);
    const uint32_t head = pmr.ReadU32(db_off + 4);
    if (tail >= queue_depth || head >= queue_depth) {
      // Garbage doorbell values (wrong image / never-initialized queue):
      // treat the queue as empty rather than walking a bogus window.
      continue;
    }
    for (uint32_t slot = head; slot != tail; slot = (slot + 1) % queue_depth) {
      uint8_t raw[kSqeSize];
      pmr.Read(base + static_cast<size_t>(slot) * kSqeSize,
               std::span<uint8_t>(raw, kSqeSize));
      const NvmeCommand cmd = NvmeCommand::Parse(raw);
      UnfinishedRequest req;
      req.qid = qid;
      req.tx_id = cmd.tx_id;
      req.slba = cmd.slba;
      req.num_blocks = cmd.is_io() ? cmd.num_blocks() : 0;
      req.is_commit = cmd.is_tx_commit();
      out.push_back(req);
    }
  }
  return out;
}

}  // namespace ccnvme
