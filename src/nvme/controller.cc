#include "src/nvme/controller.h"

#include "src/common/logging.h"
#include "src/metrics/metrics.h"
#include "src/nvme/admin.h"
#include "src/nvme/kv_ssd.h"
#include "src/trace/tracer.h"

namespace ccnvme {
namespace {

// Device internal parallelism per queue (how many commands a queue can
// have in flight inside the controller).
constexpr int kWorkersPerQueue = 8;
// Device-internal latency to read one SQE out of the PMR (no PCIe hop).
constexpr uint64_t kPmrFetchNs = 250;

}  // namespace

NvmeController::NvmeController(Simulator* sim, PcieLink* link, SsdModel* ssd,
                               const NvmeControllerConfig& config)
    : sim_(sim), link_(link), ssd_(ssd), config_(config) {}

IoQueuePair* NvmeController::CreateIoQueuePair(uint16_t qid, bool sq_in_pmr,
                                               size_t pmr_sq_offset,
                                               std::function<void()> irq_handler) {
  return CreateIoQueuePairWithDepth(qid, config_.queue_depth, sq_in_pmr, pmr_sq_offset,
                                    std::move(irq_handler));
}

IoQueuePair* NvmeController::CreateIoQueuePairWithDepth(uint16_t qid, uint16_t depth,
                                                        bool sq_in_pmr, size_t pmr_sq_offset,
                                                        std::function<void()> irq_handler) {
  auto qp = std::make_unique<IoQueuePair>();
  qp->qid = qid;
  qp->depth = depth;
  qp->sq_in_pmr = sq_in_pmr;
  qp->pmr_sq_offset = pmr_sq_offset;
  if (!sq_in_pmr) {
    qp->host_sq.resize(static_cast<size_t>(qp->depth) * kSqeSize);
  } else {
    CCNVME_CHECK_LE(pmr_sq_offset + static_cast<size_t>(qp->depth) * kSqeSize, pmr_.size())
        << "P-SQ does not fit in the PMR";
  }
  qp->host_cq.resize(static_cast<size_t>(qp->depth) * kCqeSize);
  qp->data.resize(qp->depth);
  qp->irq_handler = std::move(irq_handler);
  qp->mu = std::make_unique<SimMutex>(sim_);
  qp->doorbell_cv = std::make_unique<SimCondVar>(sim_);
  qp->claims_cv = std::make_unique<SimCondVar>(sim_);

  IoQueuePair* raw = qp.get();
  queues_.push_back(std::move(qp));
  for (int w = 0; w < kWorkersPerQueue; ++w) {
    sim_->Spawn("nvme_q" + std::to_string(qid) + "_w" + std::to_string(w),
                [this, raw] { WorkerLoop(raw); });
  }
  return raw;
}

IoQueuePair* NvmeController::CreateAdminQueue(std::function<void()> irq_handler) {
  RegisterIrqVector(0, irq_handler);
  IoQueuePair* qp = CreateIoQueuePair(/*qid=*/0, /*sq_in_pmr=*/false, 0,
                                      std::move(irq_handler));
  qp->is_admin = true;
  return qp;
}

void NvmeController::RegisterIrqVector(uint16_t vector, std::function<void()> handler) {
  irq_vectors_[vector] = std::move(handler);
}

IoQueuePair* NvmeController::FindQueue(uint16_t qid) {
  if (deleted_queues_.count(qid) != 0) {
    return nullptr;
  }
  for (auto& qp : queues_) {
    if (qp->qid == qid && !qp->is_admin) {
      return qp.get();
    }
  }
  return nullptr;
}

void NvmeController::RingSqDoorbell(IoQueuePair* qp, uint16_t new_tail) {
  CCNVME_CHECK_LT(new_tail, qp->depth);
  qp->sq_tail_db = new_tail;
  qp->doorbell_cv->NotifyAll();
}

void NvmeController::RingCqDoorbell(IoQueuePair* qp, uint16_t new_head) {
  CCNVME_CHECK_LT(new_head, qp->depth);
  qp->cq_head_db = new_head;
}

void NvmeController::ReadSqe(IoQueuePair* qp, uint16_t slot, std::span<uint8_t> out) {
  const size_t off = static_cast<size_t>(slot) * kSqeSize;
  if (qp->sq_in_pmr) {
    pmr_.Read(qp->pmr_sq_offset + off, out);
  } else {
    std::memcpy(out.data(), qp->host_sq.data() + off, kSqeSize);
  }
}

void NvmeController::WorkerLoop(IoQueuePair* qp) {
  for (;;) {
    uint16_t slot;
    uint64_t claim;
    {
      SimLockGuard guard(*qp->mu);
      while (qp->sq_fetch_head == qp->sq_tail_db) {
        qp->doorbell_cv->Wait(*qp->mu);
      }
      slot = qp->sq_fetch_head;
      qp->sq_fetch_head = qp->SlotAfter(slot);
      claim = qp->next_claim_seq++;
      qp->active_claims.insert(claim);
    }

    // Fetch the SQE: device-internal for P-SQ, a PCIe queue DMA otherwise.
    Tracer* tracer = sim_->tracer();
    if (tracer != nullptr) tracer->BeginSpan(TracePoint::kSqeFetch);
    if (qp->sq_in_pmr) {
      Simulator::Sleep(kPmrFetchNs);
    } else {
      link_->DmaQueueFetch(kSqeSize);
    }
    uint8_t raw[kSqeSize];
    ReadSqe(qp, slot, raw);
    const NvmeCommand cmd = NvmeCommand::Parse(raw);
    if (tracer != nullptr) tracer->EndSpan(TracePoint::kSqeFetch);
    // The SQE carries the request/transaction ids across the PCIe boundary;
    // restore them so the device-side spans join the host-side flow.
    ScopedTraceContext trace_ctx({cmd.trace_req, cmd.tx_id});

    if (qp->is_admin) {
      ExecuteAdmin(qp, cmd);
      SimLockGuard guard(*qp->mu);
      qp->active_claims.erase(qp->active_claims.find(claim));
      qp->claims_cv->NotifyAll();
      continue;
    }

    if (config_.tx_aware_irq_coalescing && cmd.is_tx()) {
      IoQueuePair::TxIrqState& st = qp->tx_irq[cmd.tx_id];
      st.inflight++;
      if (cmd.is_tx_commit()) {
        st.commit_seen = true;
      }
    }

    if (cmd.op() == NvmeOpcode::kFlush) {
      // FLUSH acts as a drain barrier: it executes only after every command
      // fetched before it has finished, so it covers exactly the writes the
      // host intended it to cover (JBD2's PREFLUSH and ccNVMe's implicit
      // commit flush both rely on this).
      SimLockGuard guard(*qp->mu);
      while (*qp->active_claims.begin() != claim) {
        qp->claims_cv->Wait(*qp->mu);
      }
    }

    {
      ScopedSpan span(tracer, TracePoint::kNvmeExecute, cmd.opcode);
      Execute(qp, cmd);
    }

    {
      SimLockGuard guard(*qp->mu);
      qp->active_claims.erase(qp->active_claims.find(claim));
      qp->claims_cv->NotifyAll();
    }
  }
}

void NvmeController::Execute(IoQueuePair* qp, const NvmeCommand& cmd) {
  if (cmd.is_kv()) {
    CCNVME_CHECK(kv_ssd_ != nullptr) << "KV opcode on a block-only controller";
    ExecuteKv(qp, cmd);
    return;
  }
  uint16_t status = 0;
  switch (cmd.op()) {
    case NvmeOpcode::kWrite: {
      const IoQueuePair::DataRef& ref = qp->data[cmd.cid];
      CCNVME_CHECK(ref.write_data != nullptr)
          << "write cid " << cmd.cid << " without a data descriptor";
      CCNVME_CHECK_EQ(ref.write_data->size(), cmd.byte_length());
      link_->DmaData(cmd.byte_length(), /*to_device=*/true);
      if (!ssd_->MediaWrite(cmd.byte_offset(), *ref.write_data, cmd.fua())) {
        status = 0x281;  // generic media write fault
      }
      break;
    }
    case NvmeOpcode::kRead: {
      const IoQueuePair::DataRef& ref = qp->data[cmd.cid];
      CCNVME_CHECK(ref.read_buf != nullptr)
          << "read cid " << cmd.cid << " without a data descriptor";
      ref.read_buf->resize(cmd.byte_length());
      if (!ssd_->MediaRead(cmd.byte_offset(), *ref.read_buf)) {
        status = 0x281;  // unrecovered read error
      }
      link_->DmaData(cmd.byte_length(), /*to_device=*/false);
      break;
    }
    case NvmeOpcode::kFlush: {
      ssd_->MediaFlush();
      break;
    }
    default:
      break;  // KV opcodes dispatched above
  }
  commands_executed_++;
  PostCompletion(qp, cmd, status, /*result=*/0);
}

void NvmeController::ExecuteKv(IoQueuePair* qp, const NvmeCommand& cmd) {
  uint16_t status = 0;
  uint32_t result = 0;
  switch (cmd.op()) {
    case NvmeOpcode::kKvStore: {
      // SLBA carries the value length; the payload rides the normal data
      // descriptor and is DMAed to the device before execution.
      const IoQueuePair::DataRef& ref = qp->data[cmd.cid];
      CCNVME_CHECK(ref.write_data != nullptr)
          << "KV Store cid " << cmd.cid << " without a data descriptor";
      CCNVME_CHECK_EQ(ref.write_data->size(), cmd.slba);
      link_->DmaData(ref.write_data->size(), /*to_device=*/true);
      status = kv_ssd_->ExecStore(cmd.key_span(), *ref.write_data);
      break;
    }
    case NvmeOpcode::kKvRetrieve: {
      const IoQueuePair::DataRef& ref = qp->data[cmd.cid];
      CCNVME_CHECK(ref.read_buf != nullptr)
          << "KV Retrieve cid " << cmd.cid << " without a data descriptor";
      status = kv_ssd_->ExecRetrieve(cmd.key_span(), ref.read_buf, &result);
      link_->DmaData(ref.read_buf->size(), /*to_device=*/false);
      break;
    }
    case NvmeOpcode::kKvDelete: {
      status = kv_ssd_->ExecDelete(cmd.key_span());
      break;
    }
    case NvmeOpcode::kKvExist: {
      status = kv_ssd_->ExecExist(cmd.key_span());
      break;
    }
    case NvmeOpcode::kKvList: {
      const IoQueuePair::DataRef& ref = qp->data[cmd.cid];
      CCNVME_CHECK(ref.read_buf != nullptr)
          << "KV List cid " << cmd.cid << " without a data descriptor";
      status = kv_ssd_->ExecList(cmd.cdw10(), cmd.cdw12, ref.read_buf, &result);
      link_->DmaData(ref.read_buf->size(), /*to_device=*/false);
      break;
    }
    default:
      status = kKvStatusInvalidField;  // unknown vendor opcode
      break;
  }
  commands_executed_++;
  PostCompletion(qp, cmd, status, result);
}

void NvmeController::PostCompletion(IoQueuePair* qp, const NvmeCommand& cmd, uint16_t status,
                                    uint32_t result) {
  // Post the CQE and (maybe) interrupt. CQ slot allocation and the phase
  // flip happen atomically w.r.t. other workers because nothing yields
  // between them.
  NvmeCompletion cqe;
  cqe.result = result;
  cqe.sq_head = qp->sq_fetch_head;
  cqe.sq_id = qp->qid;
  cqe.cid = cmd.cid;
  cqe.status = status;
  cqe.phase = qp->cq_phase;
  const uint16_t cq_slot = qp->cq_tail;
  qp->cq_tail = qp->SlotAfter(cq_slot);
  if (qp->cq_tail == 0) {
    qp->cq_phase = !qp->cq_phase;
  }
  cqe.Serialize(std::span<uint8_t>(qp->host_cq).subspan(
      static_cast<size_t>(cq_slot) * kCqeSize, kCqeSize));
  if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kCqePost, cmd.cid);
  if (Metrics* m = sim_->metrics()) {
    // The host's bottom half relies on CQEs landing in consecutive slots
    // with the phase tag flipping exactly at wraparound.
    m->monitors().OnCqePost(qp, qp->depth, cq_slot, cqe.phase);
  }
  link_->DmaQueuePost(kCqeSize);

  bool raise = true;
  if (config_.tx_aware_irq_coalescing && cmd.is_tx()) {
    // One interrupt per transaction: fire only when the last command of a
    // committed transaction finishes (§4.6).
    auto it = qp->tx_irq.find(cmd.tx_id);
    CCNVME_CHECK(it != qp->tx_irq.end());
    it->second.inflight--;
    raise = it->second.commit_seen && it->second.inflight == 0;
    if (raise) {
      qp->tx_irq.erase(it);
    }
  }
  if (raise) {
    link_->RaiseIrq(qp->irq_handler);
  }
}

void NvmeController::ExecuteAdmin(IoQueuePair* qp, const NvmeCommand& cmd) {
  commands_executed_++;
  uint16_t status = 0;
  uint32_t result = 0;
  switch (static_cast<AdminOpcode>(cmd.opcode)) {
    case AdminOpcode::kIdentify: {
      IoQueuePair::DataRef& ref = qp->data[cmd.cid];
      CCNVME_CHECK(ref.read_buf != nullptr) << "identify without a data buffer";
      ref.read_buf->resize(kIdentifyPageSize);
      IdentifyController id;
      id.serial = "CCNVME-SIM-0001";
      id.model = ssd_->config().name;
      id.firmware = "1.0";
      id.max_io_queues = config_.num_io_queues;
      id.pmr_size_bytes = pmr_.size();
      id.max_queue_depth = config_.queue_depth;
      id.Serialize(*ref.read_buf);
      link_->DmaData(kIdentifyPageSize, /*to_device=*/false);
      break;
    }
    case AdminOpcode::kGetLogPage: {
      IoQueuePair::DataRef& ref = qp->data[cmd.cid];
      CCNVME_CHECK(ref.read_buf != nullptr) << "get-log-page without a data buffer";
      ref.read_buf->resize(512);
      DeviceStatsLog log;
      log.commands_executed = commands_executed_;
      log.media_reads = ssd_->reads_served();
      log.media_writes = ssd_->writes_served();
      log.media_flushes = ssd_->flushes_served();
      log.Serialize(*ref.read_buf);
      link_->DmaData(512, /*to_device=*/false);
      break;
    }
    case AdminOpcode::kSetFeatures: {
      if ((cmd.cdw10() & 0xFF) == kFeatureNumQueues) {
        const uint16_t requested = static_cast<uint16_t>((cmd.cdw11() & 0xFFFF) + 1);
        const uint16_t granted = std::min<uint16_t>(requested, config_.num_io_queues);
        result = (static_cast<uint32_t>(granted - 1) << 16) | (granted - 1u);
      } else {
        status = 0x02;  // invalid field
      }
      break;
    }
    case AdminOpcode::kGetFeatures: {
      if ((cmd.cdw10() & 0xFF) == kFeatureNumQueues) {
        result = (static_cast<uint32_t>(config_.num_io_queues - 1) << 16) |
                 (config_.num_io_queues - 1u);
      } else {
        status = 0x02;
      }
      break;
    }
    case AdminOpcode::kCreateIoCq: {
      const uint16_t qid = static_cast<uint16_t>(cmd.cdw10() & 0xFFFF);
      const uint16_t depth = static_cast<uint16_t>((cmd.cdw10() >> 16) + 1);
      if (qid == 0 || qid > config_.num_io_queues || depth > config_.queue_depth) {
        status = 0x02;
        break;
      }
      pending_cqs_[qid] = depth;
      deleted_queues_.erase(qid);
      break;
    }
    case AdminOpcode::kCreateIoSq: {
      const uint16_t qid = static_cast<uint16_t>(cmd.cdw10() & 0xFFFF);
      auto it = pending_cqs_.find(qid);
      if (it == pending_cqs_.end()) {
        status = 0x01;  // CQ does not exist (spec: invalid queue identifier)
        break;
      }
      const bool pmr_backed = (cmd.cdw11() & kSqFlagPmrBacked) != 0;
      auto vec = irq_vectors_.find(qid);
      CCNVME_CHECK(vec != irq_vectors_.end())
          << "host did not register an MSI-X vector for queue " << qid;
      CreateIoQueuePairWithDepth(qid, it->second, pmr_backed,
                                 static_cast<size_t>(cmd.prp1), vec->second);
      pending_cqs_.erase(it);
      break;
    }
    case AdminOpcode::kDeleteIoSq:
    case AdminOpcode::kDeleteIoCq: {
      const uint16_t qid = static_cast<uint16_t>(cmd.cdw10() & 0xFFFF);
      deleted_queues_.insert(qid);
      break;
    }
  }
  PostCompletion(qp, cmd, status, result);
}

}  // namespace ccnvme
