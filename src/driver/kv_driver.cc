#include "src/driver/kv_driver.h"

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/nvme/kv_ssd.h"
#include "src/trace/tracer.h"

namespace ccnvme {
namespace {

constexpr uint64_t kKvCpuNs = 300;  // host CPU per op: key encode + command setup

}  // namespace

KvNvmeDriver::KvNvmeDriver(Simulator* sim, NvmeDriver* nvme) : sim_(sim), nvme_(nvme) {}

Status KvNvmeDriver::WaitKv(const NvmeDriver::RequestHandle& req) {
  req->done.Wait();
  if (req->nvme_status == kKvStatusNotFound) {
    return NotFound("key does not exist");
  }
  if (req->nvme_status != 0) {
    return IoError("kv nvme status " + std::to_string(req->nvme_status));
  }
  return OkStatus();
}

Status KvNvmeDriver::Store(uint16_t qid, std::string_view key,
                           std::span<const uint8_t> value) {
  CCNVME_CHECK(!key.empty() && key.size() <= kKvMaxKeyLen);
  ScopedTraceContext trace_ctx({next_req_id_++, 0});
  ScopedSpan span(sim_->tracer(), TracePoint::kKvTotal,
                  static_cast<uint8_t>(NvmeOpcode::kKvStore));
  Simulator::Sleep(kKvCpuNs);
  const Buffer data(value.begin(), value.end());
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kKvStore);
  cmd.set_key(KeyBytes(key));
  cmd.slba = data.size();  // value length rides SLBA
  Status st = WaitKv(nvme_->SubmitRaw(qid, cmd, &data, nullptr));
  if (st.ok()) {
    stores_++;
  }
  return st;
}

Status KvNvmeDriver::Store(uint16_t qid, std::string_view key, std::string_view value) {
  return Store(qid, key,
               std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(value.data()),
                                        value.size()));
}

Result<Buffer> KvNvmeDriver::Retrieve(uint16_t qid, std::string_view key) {
  CCNVME_CHECK(!key.empty() && key.size() <= kKvMaxKeyLen);
  ScopedTraceContext trace_ctx({next_req_id_++, 0});
  ScopedSpan span(sim_->tracer(), TracePoint::kKvTotal,
                  static_cast<uint8_t>(NvmeOpcode::kKvRetrieve));
  Simulator::Sleep(kKvCpuNs);
  Buffer out;
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kKvRetrieve);
  cmd.set_key(KeyBytes(key));
  auto req = nvme_->SubmitRaw(qid, cmd, nullptr, &out);
  Status st = WaitKv(req);
  if (!st.ok()) {
    return st;
  }
  CCNVME_CHECK_EQ(out.size(), req->result);
  retrieves_++;
  return out;
}

Status KvNvmeDriver::Delete(uint16_t qid, std::string_view key) {
  CCNVME_CHECK(!key.empty() && key.size() <= kKvMaxKeyLen);
  ScopedTraceContext trace_ctx({next_req_id_++, 0});
  ScopedSpan span(sim_->tracer(), TracePoint::kKvTotal,
                  static_cast<uint8_t>(NvmeOpcode::kKvDelete));
  Simulator::Sleep(kKvCpuNs);
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kKvDelete);
  cmd.set_key(KeyBytes(key));
  Status st = WaitKv(nvme_->SubmitRaw(qid, cmd, nullptr, nullptr));
  if (st.ok()) {
    deletes_++;
  }
  return st;
}

Result<bool> KvNvmeDriver::Exist(uint16_t qid, std::string_view key) {
  CCNVME_CHECK(!key.empty() && key.size() <= kKvMaxKeyLen);
  ScopedTraceContext trace_ctx({next_req_id_++, 0});
  ScopedSpan span(sim_->tracer(), TracePoint::kKvTotal,
                  static_cast<uint8_t>(NvmeOpcode::kKvExist));
  Simulator::Sleep(kKvCpuNs);
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kKvExist);
  cmd.set_key(KeyBytes(key));
  auto req = nvme_->SubmitRaw(qid, cmd, nullptr, nullptr);
  req->done.Wait();
  if (req->nvme_status == kKvStatusNotFound) {
    return false;
  }
  if (req->nvme_status != 0) {
    return IoError("kv nvme status " + std::to_string(req->nvme_status));
  }
  return true;
}

Result<std::vector<std::string>> KvNvmeDriver::ListKeys(uint16_t qid) {
  ScopedTraceContext trace_ctx({next_req_id_++, 0});
  ScopedSpan span(sim_->tracer(), TracePoint::kKvTotal,
                  static_cast<uint8_t>(NvmeOpcode::kKvList));
  std::vector<std::string> keys;
  uint32_t cursor = 0;
  for (;;) {
    Simulator::Sleep(kKvCpuNs);
    Buffer out;
    NvmeCommand cmd;
    cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kKvList);
    cmd.slba = cursor;          // CDW10: start slot
    cmd.cdw12 = 64;             // max keys per command
    auto req = nvme_->SubmitRaw(qid, cmd, nullptr, &out);
    Status st = WaitKv(req);
    if (!st.ok()) {
      return st;
    }
    CCNVME_CHECK_GE(out.size(), 8u);
    const uint32_t next = GetU32(out, 0);
    const uint32_t count = GetU32(out, 4);
    size_t off = 8;
    for (uint32_t i = 0; i < count; ++i) {
      CCNVME_CHECK_LT(off, out.size());
      const uint8_t len = out[off++];
      CCNVME_CHECK_LE(off + len, out.size());
      keys.emplace_back(reinterpret_cast<const char*>(out.data() + off), len);
      off += len;
    }
    if (next == 0xFFFFFFFFu) {
      break;
    }
    cursor = next;
  }
  return keys;
}

}  // namespace ccnvme
