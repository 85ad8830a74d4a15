// Host-side NVMe driver (the `nvme` kernel module of Figure 1).
//
// One queue pair per core: submissions write the SQE into the host-memory SQ
// ring and ring the SQ doorbell with one posted MMIO (the eager, per-request
// behaviour of stock NVMe); completions arrive as CQEs + MSI-X, are processed
// by a per-queue bottom-half actor that charges interrupt CPU costs, rings
// the CQ doorbell, and signals the waiting request.
//
// The ccNVMe extension lives in src/ccnvme and drives this controller
// through its own persistent-queue path; this class is the baseline used by
// Ext4/HoraeFS and by non-transactional traffic.
#ifndef SRC_DRIVER_NVME_DRIVER_H_
#define SRC_DRIVER_NVME_DRIVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/driver/host_costs.h"
#include "src/nvme/controller.h"
#include "src/pcie/pcie_link.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"

namespace ccnvme {

struct NvmeDriverConfig {
  uint16_t num_queues = 1;
  HostCosts costs;
};

class NvmeDriver {
 public:
  // A submitted request. Callers keep the handle alive until completion.
  struct Request {
    explicit Request(Simulator* sim) : done(sim) {}
    SimCompletion done;
    uint16_t nvme_status = 0;
    uint32_t result = 0;  // CQE dword 0 (KV Retrieve/List sizes)
    uint16_t cid = 0;
    uint16_t qid = 0;
    // Trace request id of the submitter, restored on the bottom-half actor
    // when this request's CQE is handled.
    uint64_t trace_req = 0;
    // Optional completion callback, invoked from the bottom half before
    // |done| is signaled.
    std::function<void()> on_complete;
  };
  using RequestHandle = std::shared_ptr<Request>;

  NvmeDriver(Simulator* sim, PcieLink* link, NvmeController* controller,
             const NvmeDriverConfig& config);

  // Asynchronous submissions. |data| / |out| must stay alive until the
  // request completes. Timing: the caller pays the driver submission CPU
  // and the doorbell MMIO before these return.
  RequestHandle SubmitWrite(uint16_t qid, uint64_t slba, const Buffer* data, bool fua,
                            uint32_t tx_flags = 0, uint64_t tx_id = 0,
                            std::function<void()> on_complete = nullptr);
  RequestHandle SubmitRead(uint16_t qid, uint64_t slba, uint32_t num_blocks, Buffer* out);
  RequestHandle SubmitFlush(uint16_t qid);
  // Raw vendor/KV command submission (KvNvmeDriver): |cmd|'s cid is
  // assigned here; |data|/|out| become the command's data descriptors.
  RequestHandle SubmitRaw(uint16_t qid, const NvmeCommand& cmd, const Buffer* data,
                          Buffer* out);

  // Blocks the calling actor until |req| completes.
  static Status Wait(const RequestHandle& req);

  // Synchronous conveniences.
  Status Write(uint16_t qid, uint64_t slba, const Buffer& data, bool fua);
  Status Read(uint16_t qid, uint64_t slba, uint32_t num_blocks, Buffer* out);
  Status Flush(uint16_t qid);

  uint16_t num_queues() const { return config_.num_queues; }
  const HostCosts& costs() const { return config_.costs; }
  NvmeController* controller() { return controller_; }
  PcieLink* link() { return link_; }

 private:
  struct QueueState {
    IoQueuePair* qp = nullptr;
    uint16_t sq_tail = 0;   // host copy of the tail
    uint16_t sq_head = 0;   // last head reported by the device
    uint16_t cq_head = 0;
    bool cq_phase = true;
    std::deque<uint16_t> free_cids;
    std::vector<RequestHandle> inflight;  // indexed by cid
    std::unique_ptr<SimSemaphore> irq_pending;  // IRQ top half -> bottom half
    std::unique_ptr<SimMutex> submit_mu;
    std::unique_ptr<SimCondVar> slot_available;
  };

  RequestHandle SubmitCommand(uint16_t qid, NvmeCommand cmd, const Buffer* data, Buffer* out,
                              std::function<void()> on_complete);
  void BottomHalfLoop(QueueState* q);

  Simulator* sim_;
  PcieLink* link_;
  NvmeController* controller_;
  NvmeDriverConfig config_;
  std::vector<std::unique_ptr<QueueState>> queues_;
};

}  // namespace ccnvme

#endif  // SRC_DRIVER_NVME_DRIVER_H_
