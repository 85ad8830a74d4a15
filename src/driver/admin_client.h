// Host-side admin queue client.
//
// Drives the controller's admin command set over a real admin queue pair:
// Identify, Get Log Page, Set Features (Number of Queues), Create/Delete
// I/O CQ/SQ. Admin commands are serialized (one outstanding), which is how
// the kernel uses the admin queue during probe.
#ifndef SRC_DRIVER_ADMIN_CLIENT_H_
#define SRC_DRIVER_ADMIN_CLIENT_H_

#include <memory>

#include "src/common/status.h"
#include "src/nvme/admin.h"
#include "src/nvme/controller.h"
#include "src/sim/sync.h"

namespace ccnvme {

class AdminClient {
 public:
  AdminClient(Simulator* sim, PcieLink* link, NvmeController* controller);

  // All calls must run inside an actor (they block on the admin round trip).
  Result<IdentifyController> Identify();
  Result<DeviceStatsLog> GetDeviceStats();
  // Returns the number of I/O queues the controller granted.
  Result<uint16_t> SetNumQueues(uint16_t requested);
  // Creates the CQ (bound to MSI-X vector |qid| with |irq_handler|) and the
  // SQ for queue |qid|. |pmr_offset| is used when |pmr_backed|.
  Status CreateIoQueuePair(uint16_t qid, uint16_t depth, bool pmr_backed, uint64_t pmr_offset,
                           std::function<void()> irq_handler);
  Status DeleteIoQueuePair(uint16_t qid);

 private:
  struct AdminCompletion {
    uint16_t status = 0;
    uint32_t result = 0;
  };
  Result<AdminCompletion> Submit(NvmeCommand cmd, Buffer* read_buf);

  Simulator* sim_;
  PcieLink* link_;
  NvmeController* controller_;
  IoQueuePair* qp_ = nullptr;
  SimMutex mu_;  // one admin command outstanding at a time
  std::unique_ptr<SimCompletion> irq_;
  uint16_t sq_tail_ = 0;
  uint16_t cq_head_ = 0;
  bool cq_phase_ = true;
};

}  // namespace ccnvme

#endif  // SRC_DRIVER_ADMIN_CLIENT_H_
