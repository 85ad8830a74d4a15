#include "src/driver/nvme_driver.h"

#include <utility>

#include "src/common/logging.h"
#include "src/driver/host_costs.h"
#include "src/trace/tracer.h"

namespace ccnvme {

NvmeDriver::NvmeDriver(Simulator* sim, PcieLink* link, NvmeController* controller,
                       const NvmeDriverConfig& config)
    : sim_(sim), link_(link), controller_(controller), config_(config) {
  for (uint16_t qid = 0; qid < config_.num_queues; ++qid) {
    auto q = std::make_unique<QueueState>();
    QueueState* raw = q.get();
    q->irq_pending = std::make_unique<SimSemaphore>(sim, 0);
    q->submit_mu = std::make_unique<SimMutex>(sim);
    q->slot_available = std::make_unique<SimCondVar>(sim);
    q->qp = controller->CreateIoQueuePair(
        qid, /*sq_in_pmr=*/false, /*pmr_sq_offset=*/0,
        /*irq_handler=*/[raw] { raw->irq_pending->Release(); });
    const uint16_t depth = q->qp->depth;
    q->inflight.resize(depth);
    for (uint16_t cid = 0; cid < depth; ++cid) {
      q->free_cids.push_back(cid);
    }
    queues_.push_back(std::move(q));
    sim->Spawn("nvme_drv_bh" + std::to_string(qid), [this, raw] { BottomHalfLoop(raw); });
  }
}

NvmeDriver::RequestHandle NvmeDriver::SubmitCommand(uint16_t qid, NvmeCommand cmd,
                                                    const Buffer* data, Buffer* out,
                                                    std::function<void()> on_complete) {
  CCNVME_CHECK_LT(qid, queues_.size());
  QueueState& q = *queues_[qid];
  IoQueuePair* qp = q.qp;

  Tracer* tracer = sim_->tracer();
  ScopedSpan span(tracer, TracePoint::kDriverSubmit, cmd.opcode);
  Simulator::Sleep(kDriverSubmitNs);

  SimLockGuard guard(*q.submit_mu);
  // Ring-full backpressure: SQ has depth-1 usable slots.
  const uint64_t full_since = sim_->now();
  while (q.free_cids.empty() ||
         qp->SlotAfter(q.sq_tail) == q.sq_head) {
    q.slot_available->Wait(*q.submit_mu);
  }
  if (tracer != nullptr) {
    tracer->WaitEdgeEvent(WaitEdge::kSqFull, full_since, sim_->now(), qid);
  }
  const uint16_t cid = q.free_cids.front();
  q.free_cids.pop_front();

  auto req = std::make_shared<Request>(sim_);
  req->cid = cid;
  req->qid = qid;
  req->on_complete = std::move(on_complete);
  q.inflight[cid] = req;

  cmd.cid = cid;
  // Stamp the submitting request's trace id into the SQE (always, so the
  // wire bytes do not depend on whether a tracer is attached) and remember
  // it for CQE-side attribution.
  cmd.trace_req = CurrentTraceContext().req_id;
  req->trace_req = cmd.trace_req;
  qp->data[cid].write_data = data;
  qp->data[cid].read_buf = out;

  // Write the SQE into the host-memory ring (plain DRAM store) and ring the
  // doorbell: one posted MMIO per request — stock NVMe's eager behaviour.
  const uint16_t slot = q.sq_tail;
  cmd.Serialize(std::span<uint8_t>(qp->host_sq)
                    .subspan(static_cast<size_t>(slot) * kSqeSize, kSqeSize));
  q.sq_tail = qp->SlotAfter(slot);
  if (tracer != nullptr) tracer->Instant(TracePoint::kSqDoorbell, q.sq_tail);
  link_->MmioWrite(4);
  controller_->RingSqDoorbell(qp, q.sq_tail);
  return req;
}

NvmeDriver::RequestHandle NvmeDriver::SubmitWrite(uint16_t qid, uint64_t slba,
                                                  const Buffer* data, bool fua,
                                                  uint32_t tx_flags, uint64_t tx_id,
                                                  std::function<void()> on_complete) {
  CCNVME_CHECK(data != nullptr && !data->empty());
  CCNVME_CHECK_EQ(data->size() % kLbaSize, 0u);
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kWrite);
  cmd.slba = slba;
  cmd.set_num_blocks(static_cast<uint32_t>(data->size() / kLbaSize));
  cmd.cdw12 |= tx_flags;
  if (fua) {
    cmd.cdw12 |= kCdw12Fua;
  }
  cmd.tx_id = tx_id;
  return SubmitCommand(qid, cmd, data, nullptr, std::move(on_complete));
}

NvmeDriver::RequestHandle NvmeDriver::SubmitRead(uint16_t qid, uint64_t slba,
                                                 uint32_t num_blocks, Buffer* out) {
  CCNVME_CHECK(out != nullptr);
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kRead);
  cmd.slba = slba;
  cmd.set_num_blocks(num_blocks);
  return SubmitCommand(qid, cmd, nullptr, out, nullptr);
}

NvmeDriver::RequestHandle NvmeDriver::SubmitFlush(uint16_t qid) {
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kFlush);
  return SubmitCommand(qid, cmd, nullptr, nullptr, nullptr);
}

NvmeDriver::RequestHandle NvmeDriver::SubmitRaw(uint16_t qid, const NvmeCommand& cmd,
                                                const Buffer* data, Buffer* out) {
  return SubmitCommand(qid, cmd, data, out, nullptr);
}

Status NvmeDriver::Wait(const RequestHandle& req) {
  req->done.Wait();
  if (req->nvme_status != 0) {
    return IoError("nvme status " + std::to_string(req->nvme_status));
  }
  return OkStatus();
}

Status NvmeDriver::Write(uint16_t qid, uint64_t slba, const Buffer& data, bool fua) {
  return Wait(SubmitWrite(qid, slba, &data, fua));
}

Status NvmeDriver::Read(uint16_t qid, uint64_t slba, uint32_t num_blocks, Buffer* out) {
  return Wait(SubmitRead(qid, slba, num_blocks, out));
}

Status NvmeDriver::Flush(uint16_t qid) { return Wait(SubmitFlush(qid)); }

void NvmeDriver::BottomHalfLoop(QueueState* q) {
  IoQueuePair* qp = q->qp;
  for (;;) {
    q->irq_pending->Acquire();
    // Absorb interrupts that piled up while we were running: one handler
    // invocation drains the whole CQ.
    while (q->irq_pending->TryAcquire()) {
    }
    Simulator::Sleep(kIrqContextSwitchNs);

    // Scan the CQ for entries with the current phase.
    int handled = 0;
    for (;;) {
      const size_t off = static_cast<size_t>(q->cq_head) * kCqeSize;
      const NvmeCompletion cqe = NvmeCompletion::Parse(
          std::span<const uint8_t>(qp->host_cq).subspan(off, kCqeSize));
      if (cqe.phase != q->cq_phase) {
        break;
      }
      Simulator::Sleep(kIrqPerCqeNs);
      q->sq_head = cqe.sq_head;
      RequestHandle req = q->inflight[cqe.cid];
      CCNVME_CHECK(req != nullptr) << "completion for idle cid " << cqe.cid;
      ScopedTraceContext trace_ctx({req->trace_req, 0});
      if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kCqeHandled, cqe.cid);
      q->inflight[cqe.cid] = nullptr;
      qp->data[cqe.cid] = IoQueuePair::DataRef{};
      q->free_cids.push_back(cqe.cid);
      req->nvme_status = cqe.status;
      req->result = cqe.result;

      q->cq_head = qp->SlotAfter(q->cq_head);
      if (q->cq_head == 0) {
        q->cq_phase = !q->cq_phase;
      }
      handled++;
      // Moved out first: the request must not keep what the callback holds
      // (callers capture state that owns this very request).
      if (auto on_complete = std::exchange(req->on_complete, nullptr)) {
        on_complete();
      }
      Simulator::Sleep(kWakeupNs);
      req->done.Signal();
    }
    if (handled > 0) {
      // Ring the CQ doorbell once per scan (per request in the synchronous
      // common case, which is what Table 1 counts).
      if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kCqDoorbell, q->cq_head);
      link_->MmioWrite(4);
      controller_->RingCqDoorbell(qp, q->cq_head);
      q->slot_available->NotifyAll();
    }
  }
}

}  // namespace ccnvme
