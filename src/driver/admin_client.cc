#include "src/driver/admin_client.h"

#include "src/common/logging.h"
#include "src/driver/host_costs.h"

namespace ccnvme {

AdminClient::AdminClient(Simulator* sim, PcieLink* link, NvmeController* controller)
    : sim_(sim), link_(link), controller_(controller), mu_(sim) {
  irq_ = std::make_unique<SimCompletion>(sim);
  SimCompletion* irq = irq_.get();
  qp_ = controller->CreateAdminQueue([irq] { irq->Signal(); });
}

Result<AdminClient::AdminCompletion> AdminClient::Submit(NvmeCommand cmd, Buffer* read_buf) {
  SimLockGuard guard(mu_);
  Simulator::Sleep(kDriverSubmitNs);
  irq_->Reset();

  cmd.cid = 0;  // single outstanding admin command
  qp_->data[0].read_buf = read_buf;
  const uint16_t slot = sq_tail_;
  cmd.Serialize(std::span<uint8_t>(qp_->host_sq)
                    .subspan(static_cast<size_t>(slot) * kSqeSize, kSqeSize));
  sq_tail_ = qp_->SlotAfter(slot);
  link_->MmioWrite(4);
  controller_->RingSqDoorbell(qp_, sq_tail_);

  irq_->Wait();
  Simulator::Sleep(kIrqPerCqeNs);
  const NvmeCompletion cqe = NvmeCompletion::Parse(
      std::span<const uint8_t>(qp_->host_cq)
          .subspan(static_cast<size_t>(cq_head_) * kCqeSize, kCqeSize));
  CCNVME_CHECK(cqe.phase == cq_phase_) << "admin CQE phase mismatch";
  cq_head_ = qp_->SlotAfter(cq_head_);
  if (cq_head_ == 0) {
    cq_phase_ = !cq_phase_;
  }
  link_->MmioWrite(4);
  controller_->RingCqDoorbell(qp_, cq_head_);
  qp_->data[0] = IoQueuePair::DataRef{};

  AdminCompletion out;
  out.status = cqe.status;
  out.result = cqe.result;
  if (cqe.status != 0) {
    return IoError("admin command failed, status " + std::to_string(cqe.status));
  }
  return out;
}

Result<IdentifyController> AdminClient::Identify() {
  Buffer page;
  CCNVME_ASSIGN_OR_RETURN(AdminCompletion done, Submit(MakeIdentifyCmd(), &page));
  (void)done;
  return IdentifyController::Parse(page);
}

Result<DeviceStatsLog> AdminClient::GetDeviceStats() {
  Buffer page;
  CCNVME_ASSIGN_OR_RETURN(AdminCompletion done, Submit(MakeGetLogPageCmd(0xC0), &page));
  (void)done;
  return DeviceStatsLog::Parse(page);
}

Result<uint16_t> AdminClient::SetNumQueues(uint16_t requested) {
  CCNVME_ASSIGN_OR_RETURN(AdminCompletion done,
                          Submit(MakeSetNumQueuesCmd(requested), nullptr));
  return static_cast<uint16_t>((done.result & 0xFFFF) + 1);
}

Status AdminClient::CreateIoQueuePair(uint16_t qid, uint16_t depth, bool pmr_backed,
                                      uint64_t pmr_offset,
                                      std::function<void()> irq_handler) {
  // The CQ's interrupt vector must exist before the CQ (spec ordering).
  controller_->RegisterIrqVector(qid, std::move(irq_handler));
  CCNVME_ASSIGN_OR_RETURN(AdminCompletion cq_done,
                          Submit(MakeCreateIoCqCmd(qid, depth), nullptr));
  (void)cq_done;
  CCNVME_ASSIGN_OR_RETURN(
      AdminCompletion sq_done,
      Submit(MakeCreateIoSqCmd(qid, depth, pmr_backed, pmr_offset), nullptr));
  (void)sq_done;
  return OkStatus();
}

Status AdminClient::DeleteIoQueuePair(uint16_t qid) {
  CCNVME_ASSIGN_OR_RETURN(AdminCompletion sq_done, Submit(MakeDeleteIoSqCmd(qid), nullptr));
  (void)sq_done;
  CCNVME_ASSIGN_OR_RETURN(AdminCompletion cq_done, Submit(MakeDeleteIoCqCmd(qid), nullptr));
  (void)cq_done;
  return OkStatus();
}

}  // namespace ccnvme
