#include "src/block/block_layer.h"

#include "src/common/logging.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

namespace {
thread_local uint16_t tls_queue = 0;
}  // namespace

BlockLayer::BlockLayer(Simulator* sim, Volume* volume, const HostCosts& costs)
    : sim_(sim), volume_(volume), costs_(costs) {
  const SsdConfig& ssd = volume_->member(0).ssd->config();
  needs_flush_ = ssd.volatile_cache && !ssd.power_loss_protection;
}

void BlockLayer::BindQueue(uint16_t qid) {
  CCNVME_CHECK_LT(qid, volume_->member(0).nvme->num_queues());
  tls_queue = qid;
}

uint16_t BlockLayer::current_queue() const { return tls_queue; }

NvmeDriver::RequestHandle BlockLayer::SubmitWrite(uint64_t lba, const Buffer* data,
                                                  uint32_t flags,
                                                  std::function<void()> on_complete) {
  CCNVME_CHECK(data != nullptr);
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kBioSubmit, lba);
  if ((flags & kBioPreflush) != 0 && needs_flush_) {
    // PREFLUSH: drain the device cache before this write (the classic
    // journaling ordering point). The flush is its own command. On PLP
    // drives the flag is stripped here, as the real block layer does.
    if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kBioFlush);
    Status st = volume_->Flush(tls_queue, flags);
    CCNVME_CHECK(st.ok());
  }
  return volume_->SubmitWrite(tls_queue, lba, data, flags, std::move(on_complete));
}

Status BlockLayer::WriteSync(uint64_t lba, const Buffer& data, uint32_t flags) {
  return Wait(SubmitWrite(lba, &data, flags));
}

Status BlockLayer::ReadSync(uint64_t lba, uint32_t num_blocks, Buffer* out) {
  Simulator::Sleep(costs_.block_layer_submit_ns);
  return volume_->Read(tls_queue, lba, num_blocks, out);
}

Status BlockLayer::FlushSync() {
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (!needs_flush_) {
    return OkStatus();
  }
  if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kBioFlush);
  return volume_->Flush(tls_queue);
}

void BlockLayer::SubmitTxWrite(uint64_t tx_id, uint64_t lba, const Buffer* data,
                               std::function<void()> on_complete) {
  CCNVME_CHECK(has_ccnvme()) << "stack has no ccNVMe extension";
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (Tracer* t = sim_->tracer()) {
    t->InstantWith(TracePoint::kBioSubmit, {CurrentTraceContext().req_id, tx_id}, lba);
  }
  if (Metrics* m = sim_->metrics()) {
    m->monitors().OnTxMemberStaged(tx_id);
  }
  volume_->SubmitTx(tls_queue, tx_id, lba, data, std::move(on_complete));
}

CcNvmeDriver::TxHandle BlockLayer::CommitTx(uint64_t tx_id, uint64_t lba, const Buffer* data,
                                            std::function<void()> on_durable) {
  CCNVME_CHECK(has_ccnvme()) << "stack has no ccNVMe extension";
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (Tracer* t = sim_->tracer()) {
    t->InstantWith(TracePoint::kBioSubmit, {CurrentTraceContext().req_id, tx_id}, lba);
  }
  if (Metrics* m = sim_->metrics()) {
    // The commit record closes the transaction: every member block the
    // journal declared must have been staged through SubmitTxWrite by now.
    m->monitors().OnTxCommitRecord(tx_id);
  }
  return volume_->CommitTx(tls_queue, tx_id, lba, data, std::move(on_durable));
}

void BlockLayer::WaitTxDurable(const CcNvmeDriver::TxHandle& tx) {
  const uint64_t begin = sim_->now();
  tx->durable.Wait();
  if (Tracer* t = sim_->tracer()) {
    t->WaitEdgeWith(WaitEdge::kTxDurable, {CurrentTraceContext().req_id, tx->tx_id},
                    begin, sim_->now());
  }
}

}  // namespace ccnvme
