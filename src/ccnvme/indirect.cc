#include "src/ccnvme/indirect.h"

#include "src/common/logging.h"
#include "src/driver/host_costs.h"

namespace ccnvme {

IndirectCcNvme::IndirectCcNvme(Simulator* sim, PcieLink* pmr_link, Pmr* pmr, NvmeDriver* nvme,
                               uint16_t num_queues, uint16_t queue_depth)
    : sim_(sim),
      pmr_link_(pmr_link),
      pmr_(pmr),
      nvme_(nvme),
      queue_depth_(queue_depth) {
  CCNVME_CHECK_LE(CcNvmeDriver::PmrQueueBase(num_queues, queue_depth), pmr->size());
  for (uint16_t qid = 0; qid < num_queues; ++qid) {
    auto q = std::make_unique<Queue>();
    q->pmr_base = CcNvmeDriver::PmrQueueBase(qid, queue_depth);
    q->wc = std::make_unique<WcBuffer>(pmr_link);
    pmr->WriteU32(q->pmr_base + static_cast<size_t>(queue_depth) * kSqeSize, 0);
    pmr->WriteU32(q->pmr_base + static_cast<size_t>(queue_depth) * kSqeSize + 4, 0);
    queues_.push_back(std::move(q));
  }
}

void IndirectCcNvme::StageToPmr(Queue& q, const NvmeCommand& cmd) {
  uint8_t raw[kSqeSize];
  cmd.Serialize(raw);
  pmr_->Write(q.pmr_base + static_cast<size_t>(q.sq_tail) * kSqeSize,
              std::span<const uint8_t>(raw, kSqeSize));
  q.wc->Store(kSqeSize);
  q.sq_tail = static_cast<uint16_t>((q.sq_tail + 1) % queue_depth_);
}

void IndirectCcNvme::OnMemberComplete(uint16_t qid, const TxHandle& tx) {
  tx->outstanding--;
  Queue& q = *queues_[qid];
  // In-order transaction completion, chained doorbells on the PMR SSD.
  while (!q.inflight.empty()) {
    TxHandle front = q.inflight.front();
    if (!front->committed || front->outstanding != 0) {
      break;
    }
    q.inflight.pop_front();
    q.psq_head = front->end_slot;
    pmr_->WriteU32(q.pmr_base + static_cast<size_t>(queue_depth_) * kSqeSize + 4, q.psq_head);
    pmr_link_->MmioWrite(4);  // persistent P-SQ-head update (PMR SSD)
    front->durable_at_ns = sim_->now();
    completed_++;
    front->durable.Signal();
  }
}

void IndirectCcNvme::SubmitTx(uint16_t qid, uint64_t tx_id, uint64_t slba,
                              const Buffer* data) {
  CCNVME_CHECK_LT(qid, queues_.size());
  Queue& q = *queues_[qid];
  Simulator::Sleep(kCcNvmeStageNs);
  if (q.open_tx == nullptr) {
    q.open_tx = std::make_shared<Transaction>(sim_);
    q.open_tx->tx_id = tx_id;
  }
  CCNVME_CHECK_EQ(q.open_tx->tx_id, tx_id);

  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kWrite);
  cmd.slba = slba;
  cmd.set_num_blocks(static_cast<uint32_t>(data->size() / kLbaSize));
  cmd.cdw12 |= kCdw12ReqTx;
  cmd.tx_id = tx_id;
  StageToPmr(q, cmd);

  // Forwarding to the test SSD is deferred to commit time so the data
  // dissemination matches the ideal design's transaction-aware doorbell.
  q.pending.push_back(PendingForward{slba, data, kCdw12ReqTx});
}

IndirectCcNvme::TxHandle IndirectCcNvme::CommitTx(uint16_t qid, uint64_t tx_id, uint64_t slba,
                                                  const Buffer* data) {
  CCNVME_CHECK_LT(qid, queues_.size());
  Queue& q = *queues_[qid];
  Simulator::Sleep(kCcNvmeStageNs);
  if (q.open_tx == nullptr) {
    q.open_tx = std::make_shared<Transaction>(sim_);
    q.open_tx->tx_id = tx_id;
  }
  TxHandle tx = q.open_tx;
  CCNVME_CHECK_EQ(tx->tx_id, tx_id);

  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kWrite);
  cmd.slba = slba;
  cmd.set_num_blocks(static_cast<uint32_t>(data->size() / kLbaSize));
  cmd.cdw12 |= kCdw12ReqTx | kCdw12ReqTxCommit;
  cmd.tx_id = tx_id;
  StageToPmr(q, cmd);

  // Transaction-aware MMIO + doorbell against the PMR SSD.
  q.wc->FlushPersistent();
  pmr_->WriteU32(q.pmr_base + static_cast<size_t>(queue_depth_) * kSqeSize, q.sq_tail);
  pmr_link_->MmioWrite(4);

  tx->committed = true;
  tx->end_slot = q.sq_tail;
  q.inflight.push_back(tx);
  q.open_tx = nullptr;
  // Atomicity point: the PMR SSD's persistent queue and doorbell hold the
  // whole transaction. Now forward everything to the test SSD through the
  // ordinary block path (its own MMIOs, block I/O and MSI-X — the
  // non-duplicated part of Figure 9(b)).
  tx->atomic_at_ns = sim_->now();
  q.pending.push_back(PendingForward{slba, data, kCdw12ReqTx | kCdw12ReqTxCommit});
  std::vector<PendingForward> forwards;
  forwards.swap(q.pending);
  tx->outstanding += static_cast<int>(forwards.size());
  for (const PendingForward& f : forwards) {
    (void)nvme_->SubmitWrite(qid, f.slba, f.data, /*fua=*/false, f.tx_flags, tx_id,
                             [this, qid, tx] { OnMemberComplete(qid, tx); });
  }
  return tx;
}

}  // namespace ccnvme
