// Host-side driver for the NVMe KV command set (src/nvme/kv_ssd).
//
// Thin by design: the KV-SSD architecture moves crash consistency into the
// device, so the host needs no WAL, no journal, no flush choreography —
// each operation is one NVMe command whose completion IS the durability
// point. Every call charges a small host CPU cost (key encode, command
// setup), wraps the round trip in a `kv.op` span so the profiler can blame
// the full device path (including wait.ftl_gc / wait.ftl_map_miss under
// it), and maps KV status codes onto Status.
#ifndef SRC_DRIVER_KV_DRIVER_H_
#define SRC_DRIVER_KV_DRIVER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/driver/nvme_driver.h"

namespace ccnvme {

class KvNvmeDriver {
 public:
  KvNvmeDriver(Simulator* sim, NvmeDriver* nvme);

  // All calls are synchronous (completion = durability) and run on the
  // caller's actor against hardware queue |qid|.
  Status Store(uint16_t qid, std::string_view key, std::span<const uint8_t> value);
  Status Store(uint16_t qid, std::string_view key, std::string_view value);
  Result<Buffer> Retrieve(uint16_t qid, std::string_view key);
  Status Delete(uint16_t qid, std::string_view key);
  Result<bool> Exist(uint16_t qid, std::string_view key);
  // Full scan via the cursor protocol (multiple KV List commands).
  Result<std::vector<std::string>> ListKeys(uint16_t qid);

  uint64_t stores() const { return stores_; }
  uint64_t retrieves() const { return retrieves_; }
  uint64_t deletes() const { return deletes_; }

 private:
  static std::span<const uint8_t> KeyBytes(std::string_view key) {
    return {reinterpret_cast<const uint8_t*>(key.data()), key.size()};
  }
  // Waits for |req|, translating the KV not-found status into NotFound.
  Status WaitKv(const NvmeDriver::RequestHandle& req);

  Simulator* sim_;
  NvmeDriver* nvme_;
  // Request ids for profiler attribution; the high-bit offset keeps them
  // disjoint from file-system request ids on mixed stacks.
  uint64_t next_req_id_ = (1ull << 48) + 1;
  uint64_t stores_ = 0;
  uint64_t retrieves_ = 0;
  uint64_t deletes_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_DRIVER_KV_DRIVER_H_
