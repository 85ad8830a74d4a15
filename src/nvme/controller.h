// NVMe controller (device-side) model.
//
// Implements the command processing flow of Figure 1: the host rings an SQ
// doorbell; controller workers fetch SQEs (a PCIe DMA when the SQ is in host
// memory, a device-internal read when it is a ccNVMe P-SQ inside the PMR),
// move the data, execute against the SSD media model, post a CQE to the host
// CQ ring and raise MSI-X. Multiple workers per queue model the controller's
// internal parallelism, so commands may complete out of order — exactly the
// behaviour the host-side ccNVMe driver must (and does) tolerate.
#ifndef SRC_NVME_CONTROLLER_H_
#define SRC_NVME_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <set>
#include <vector>

#include "src/common/bytes.h"
#include "src/nvme/command.h"
#include "src/nvme/pmr.h"
#include "src/pcie/pcie_link.h"
#include "src/sim/sync.h"
#include "src/ssd/ssd_model.h"

namespace ccnvme {

class KvSsd;

// Shared queue-pair state. The rings live in host memory (std::vector) or in
// the PMR; the doorbells are device registers written via modeled MMIO.
// Plain fields are safe: the simulator guarantees one runner at a time.
struct IoQueuePair {
  uint16_t qid = 0;
  uint16_t depth = 0;
  bool is_admin = false;

  // Submission ring backing.
  bool sq_in_pmr = false;
  size_t pmr_sq_offset = 0;      // valid when sq_in_pmr
  std::vector<uint8_t> host_sq;  // valid when !sq_in_pmr

  // Completion ring (always host memory).
  std::vector<uint8_t> host_cq;

  // Doorbell registers (device side).
  uint16_t sq_tail_db = 0;
  uint16_t cq_head_db = 0;

  // Device progress.
  uint16_t sq_fetch_head = 0;  // next SQE to fetch (fetch is in order)
  uint16_t cq_tail = 0;
  bool cq_phase = true;

  // Host data descriptors, indexed by cid — models the PRP lists. Host DRAM
  // is volatile: nothing here survives a crash.
  struct DataRef {
    const Buffer* write_data = nullptr;
    Buffer* read_buf = nullptr;
  };
  std::vector<DataRef> data;

  // MSI-X target registered by the host driver. Runs in event context.
  std::function<void()> irq_handler;

  // Device-side wakeup for doorbell rings.
  std::unique_ptr<SimMutex> mu;
  std::unique_ptr<SimCondVar> doorbell_cv;

  // Execution-order fence for FLUSH. Every fetched command registers its
  // claim sequence; a FLUSH executes only once it is the oldest active
  // claim, i.e. all previously fetched commands have finished. Other
  // commands execute in any order (NVMe prescribes none).
  uint64_t next_claim_seq = 0;
  std::multiset<uint64_t> active_claims;
  std::unique_ptr<SimCondVar> claims_cv;

  // Transaction-aware interrupt coalescing (§4.6): per-transaction count of
  // fetched-but-not-completed commands and whether the commit was seen. One
  // MSI-X fires when the last command of a committed transaction completes.
  struct TxIrqState {
    int inflight = 0;
    bool commit_seen = false;
  };
  std::map<uint64_t, TxIrqState> tx_irq;

  uint16_t SlotAfter(uint16_t slot) const {
    return static_cast<uint16_t>((slot + 1) % depth);
  }
};

struct NvmeControllerConfig {
  uint16_t num_io_queues = 1;
  uint16_t queue_depth = 256;
  // Transaction-aware interrupt coalescing (§4.6): raise MSI-X only when a
  // commit (or non-transactional) command completes. Off by default — the
  // paper discusses it as an optional controller-side optimization.
  bool tx_aware_irq_coalescing = false;
};

class NvmeController {
 public:
  NvmeController(Simulator* sim, PcieLink* link, SsdModel* ssd,
                 const NvmeControllerConfig& config);

  // Direct queue-pair creation: the shortcut the drivers use for a
  // controller whose admin bring-up already happened (see CreateAdminQueue
  // for the full protocol path, exercised by AdminClient).
  IoQueuePair* CreateIoQueuePair(uint16_t qid, bool sq_in_pmr, size_t pmr_sq_offset,
                                 std::function<void()> irq_handler);
  // As above with an explicit queue depth (the admin Create I/O SQ path).
  IoQueuePair* CreateIoQueuePairWithDepth(uint16_t qid, uint16_t depth, bool sq_in_pmr,
                                          size_t pmr_sq_offset,
                                          std::function<void()> irq_handler);

  // --- Admin command set --------------------------------------------------

  // Creates the admin queue pair (queue id 0). Admin commands submitted to
  // it drive Identify / Set Features / Create & Delete I/O queues /
  // Get Log Page. MSI-X vector 0 is the admin interrupt.
  IoQueuePair* CreateAdminQueue(std::function<void()> irq_handler);
  // Registers the host handler for an MSI-X vector; Create I/O CQ binds a
  // queue to a vector (we use vector = qid).
  void RegisterIrqVector(uint16_t vector, std::function<void()> handler);

  // Looks up a live queue pair by id (nullptr if absent/deleted).
  IoQueuePair* FindQueue(uint16_t qid);

  // Doorbell writes. The *link* timing (MMIO) is paid by the driver before
  // calling these; they model the device's reaction.
  void RingSqDoorbell(IoQueuePair* qp, uint16_t new_tail);
  void RingCqDoorbell(IoQueuePair* qp, uint16_t new_head);

  Pmr& pmr() { return pmr_; }
  SsdModel& ssd() { return *ssd_; }
  const NvmeControllerConfig& config() const { return config_; }

  // Attaches the KV-SSD front-end: opcodes >= 0x80 dispatch to it instead
  // of the block command set (see src/nvme/kv_ssd.h).
  void set_kv_ssd(KvSsd* kv) { kv_ssd_ = kv; }
  KvSsd* kv_ssd() { return kv_ssd_; }

  uint64_t commands_executed() const { return commands_executed_; }

 private:
  void WorkerLoop(IoQueuePair* qp);
  void Execute(IoQueuePair* qp, const NvmeCommand& cmd);
  void ExecuteKv(IoQueuePair* qp, const NvmeCommand& cmd);
  void ExecuteAdmin(IoQueuePair* qp, const NvmeCommand& cmd);
  void PostCompletion(IoQueuePair* qp, const NvmeCommand& cmd, uint16_t status,
                      uint32_t result);
  void ReadSqe(IoQueuePair* qp, uint16_t slot, std::span<uint8_t> out);

  Simulator* sim_;
  PcieLink* link_;
  SsdModel* ssd_;
  NvmeControllerConfig config_;
  Pmr pmr_;
  KvSsd* kv_ssd_ = nullptr;
  std::vector<std::unique_ptr<IoQueuePair>> queues_;
  uint64_t commands_executed_ = 0;
  // Admin state.
  std::map<uint16_t, uint16_t> pending_cqs_;  // qid -> depth (CQ created, SQ pending)
  std::map<uint16_t, std::function<void()>> irq_vectors_;
  std::set<uint16_t> deleted_queues_;
};

}  // namespace ccnvme

#endif  // SRC_NVME_CONTROLLER_H_
