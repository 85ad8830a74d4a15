// ccNVMe driver — the paper's core contribution (§4).
//
// Extends the NVMe host driver with crash-consistent transactions by
// coupling crash consistency to the data-dissemination mechanism:
//
//   * Persistent submission queues (P-SQ) and their doorbells (P-SQDB) and
//     completion pointers (P-SQ-head) live in the SSD's PMR, so the life
//     cycle of every request survives a power cut.
//   * Transaction-aware MMIO (§4.3): member SQEs are stored into the
//     write-combining buffer; ONE clflush+mfence+zero-length-read flush and
//     ONE doorbell ring happen at commit, regardless of transaction size.
//   * Atomicity is guaranteed the moment the P-SQDB is rung (two MMIOs) —
//     this is the MQFS-A point; durability arrives with the in-order
//     transaction completion (§4.4) — the MQFS point.
//   * Completion is transaction-ordered per hardware queue: a transaction
//     completes only after all its requests AND all preceding transactions
//     on that queue complete ("first-come-first-complete"); the driver then
//     chains the completion doorbell — persistently advancing P-SQ-head and
//     ringing the CQDB.
//   * Crash recovery (§4.4): the P-SQ window [P-SQ-head, P-SQDB) of each
//     queue identifies transactions whose completion is not guaranteed; the
//     upper layer replays the finished ones (validated by its own
//     checksums) and discards the rest.
//
// A transaction must stay on one hardware queue (§4.5); this driver CHECKs
// that rule.
#ifndef SRC_CCNVME_CCNVME_DRIVER_H_
#define SRC_CCNVME_CCNVME_DRIVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/block/bio_event.h"
#include "src/common/status.h"
#include "src/nvme/controller.h"
#include "src/pcie/wc_buffer.h"
#include "src/sim/sync.h"

namespace ccnvme {

struct CcNvmeOptions {
  uint16_t num_queues = 1;
  // Transaction-aware MMIO & doorbell (§4.3). When false, every staged
  // request is individually flushed and its doorbell rung — the naive
  // per-request mode the paper uses as the strawman (N flushes + N rings).
  bool tx_aware_mmio = true;
  // In-order transaction completion (§4.4). Disabling it breaks the
  // recovery contract; the toggle exists so tests can demonstrate that.
  bool in_order_completion = true;
  // Doorbell coalescing window, in staged member SQEs. 0 = unbounded (the
  // paper's §4.3 default: ONE flush + ONE ring at commit, so a member stays
  // invisible to the device until the whole transaction is built). A value
  // K > 0 flushes + rings after every K staged members, bounding each SQE's
  // wait.doorbell_coalesce window at the price of extra MMIO flushes — the
  // real knob behind the what-if engine's virtual-speedup prediction for
  // that edge. Early rings are protocol-safe: like SealTx, they only widen
  // the in-doubt window [P-SQ-head, P-SQDB) with uncommitted members, which
  // recovery already discards (atomicity still hinges solely on the commit
  // record's doorbell).
  uint16_t doorbell_coalesce_limit = 0;
};

class CcNvmeDriver {
 public:
  struct Transaction {
    explicit Transaction(Simulator* sim) : durable(sim) {}
    uint64_t tx_id = 0;
    // Signaled when the transaction is durably completed (in order).
    SimCompletion durable;
    // Virtual timestamps of the two guarantee points, for latency studies.
    uint64_t atomic_at_ns = 0;
    uint64_t durable_at_ns = 0;

    // Internal bookkeeping.
    int outstanding = 0;
    bool committed = false;
    uint16_t end_slot = 0;
    std::vector<std::function<void()>> on_durable;
  };
  using TxHandle = std::shared_ptr<Transaction>;

  CcNvmeDriver(Simulator* sim, PcieLink* link, NvmeController* controller,
               const CcNvmeOptions& options);

  // Stages one atomic write (REQ_TX) on |qid|'s open transaction. All
  // requests of a transaction must use the same qid and tx_id. |data| must
  // stay alive until the transaction completes durably. |on_complete| fires
  // when THIS request's CQE arrives (possibly before the transaction
  // completes) — used to release frozen pages early.
  void SubmitTx(uint16_t qid, uint64_t tx_id, uint64_t slba, const Buffer* data,
                std::function<void()> on_complete = nullptr);

  // Stages the commit request (REQ_TX_COMMIT) and performs the
  // transaction-aware flush + doorbell. On return the transaction is
  // ATOMIC: after any crash it is recovered completely or not at all.
  // On drives with a volatile cache (no PLP) the commit is made durable via
  // a flush barrier + FUA commit record, as §4.2 prescribes.
  TxHandle CommitTx(uint16_t qid, uint64_t tx_id, uint64_t slba, const Buffer* data,
                    std::function<void()> on_durable = nullptr);

  // Closes |qid|'s open transaction WITHOUT staging a commit record: one
  // persistence flush + one doorbell ring over the staged member SQEs, then
  // the transaction completes in order like any other. This is the member
  // half of a cross-device volume commit — every member device's slices
  // must be persistently submitted (sealed) before the volume rings the
  // commit device's REQ_TX_COMMIT doorbell. On drives with a volatile cache
  // a flush command rides along so completion still implies durability.
  TxHandle SealTx(uint16_t qid, uint64_t tx_id, std::function<void()> on_durable = nullptr);

  // Drops |qid|'s open (not yet committed/sealed) transaction: staged but
  // unrung SQEs are reclaimed, the tail rewinds to the last rung value and
  // the WC buffer is discarded. The persistent window [P-SQ-head, P-SQDB)
  // is untouched — the doorbell was never advanced, so recovery never sees
  // the aborted requests. Used when a volume member device is failed while
  // a transaction is being built on it.
  void AbortOpenTx(uint16_t qid);

  // Blocks until |tx| is durable.
  void WaitDurable(const TxHandle& tx);

  // --- Crash recovery ----------------------------------------------------

  struct UnfinishedRequest {
    uint16_t qid = 0;
    uint64_t tx_id = 0;
    uint64_t slba = 0;
    uint32_t num_blocks = 0;
    bool is_commit = false;
    // Member index, stamped by the volume layer when windows of several
    // devices are unioned (0 on single-device stacks).
    uint16_t device = 0;
  };
  // Parses a PMR image (typically from a previous "boot") and returns the
  // requests in every queue's unfinished window [P-SQ-head, P-SQDB).
  static std::vector<UnfinishedRequest> ScanUnfinished(const Pmr& pmr, uint16_t num_queues,
                                                       uint16_t queue_depth);

  // The unfinished window found in the PMR at driver bring-up, captured
  // BEFORE the driver reinitializes the persistent doorbells (§4.4: the
  // window identifies transactions whose completion is not guaranteed; the
  // upper layer validates exactly those during its recovery). Empty on a
  // factory-fresh device.
  const std::vector<UnfinishedRequest>& recovered_window() const { return recovered_window_; }

  // Observer for the crash-state recorder: every PMR mutation (SQE staging,
  // persistence fences, doorbell rings, head advances) is reported so a
  // crash tester can reconstruct the PMR bytes at any point of a run.
  void set_recorder(BioRecorder recorder) { recorder_ = std::move(recorder); }

  // PMR layout: per queue, the SQE ring followed by P-SQDB and P-SQ-head.
  static size_t PmrRegionSize(uint16_t queue_depth) {
    return static_cast<size_t>(queue_depth) * kSqeSize + 64;
  }
  static size_t PmrQueueBase(uint16_t qid, uint16_t queue_depth) {
    return static_cast<size_t>(qid) * PmrRegionSize(queue_depth);
  }

  uint16_t num_queues() const { return options_.num_queues; }
  const CcNvmeOptions& options() const { return options_; }

  // Member index within a multi-device volume, stamped into every recorded
  // event and trace context so the crash model reconstructs each device's
  // PMR separately. 0 for single-device stacks.
  void set_device_id(uint16_t device) { device_id_ = device; }
  uint16_t device_id() const { return device_id_; }

  // Number of transactions durably completed (tests/benches).
  uint64_t transactions_completed() const { return transactions_completed_; }

 private:
  struct Queue {
    IoQueuePair* qp = nullptr;
    uint16_t qid = 0;
    size_t pmr_base = 0;
    std::unique_ptr<WcBuffer> wc;
    uint16_t sq_tail = 0;
    uint16_t psq_head = 0;  // host copy of the persistent head
    // Tail value of the last doorbell ring, and the cids staged since: an
    // abort rewinds to here (the device never saw anything past it).
    uint16_t last_rung_tail = 0;
    std::vector<uint16_t> unrung_cids;
    uint16_t cq_head = 0;
    bool cq_phase = true;
    TxHandle open_tx;
    std::deque<TxHandle> inflight_txs;
    std::vector<TxHandle> cid_to_tx;
    std::vector<std::function<void()>> cid_callbacks;
    // Trace request id per staged cid, restored on the bottom-half actor
    // when the matching CQE arrives.
    std::vector<uint64_t> cid_req;
    // Virtual time each staged-but-unrung cid finished staging; the gap to
    // the doorbell ring is its coalescing wait edge.
    std::vector<uint64_t> cid_staged_ns;
    // tx_id per staged cid, for wait-edge attribution at ring time.
    std::vector<uint64_t> cid_tx;
    std::deque<uint16_t> free_cids;
    std::unique_ptr<SimSemaphore> irq_pending;
    std::unique_ptr<SimMutex> submit_mu;
    std::unique_ptr<SimCondVar> slot_available;
  };

  size_t DoorbellOffset(const Queue& q) const;
  size_t HeadOffset(const Queue& q) const;
  // One persistence flush + one P-SQDB ring covering everything staged on
  // |q| (the transaction-aware MMIO sequence shared by commit and seal).
  void FlushAndRing(Queue& q, uint64_t tx_id);
  // Reports a PMR mutation to the crash-state recorder (no-op when unset).
  void RecordPmr(BioOp op, uint16_t qid, size_t offset, std::span<const uint8_t> bytes,
                 uint32_t flags, uint64_t tx_id);
  // Uncached 4-byte PMR store (doorbell/head) + recorder notification.
  void PmrStoreU32(Queue& q, BioOp op, size_t offset, uint32_t value, uint64_t tx_id);
  // Stages a command into the P-SQ via WC stores; returns the slot used.
  uint16_t StageCommand(Queue& q, NvmeCommand cmd, const Buffer* data);
  void BottomHalfLoop(Queue* q);
  void CompleteReadyTransactions(Queue& q);
  Queue& GetQueue(uint16_t qid);

  Simulator* sim_;
  PcieLink* link_;
  NvmeController* controller_;
  CcNvmeOptions options_;
  std::vector<std::unique_ptr<Queue>> queues_;
  uint64_t transactions_completed_ = 0;
  std::vector<UnfinishedRequest> recovered_window_;
  BioRecorder recorder_;
  uint16_t device_id_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_CCNVME_CCNVME_DRIVER_H_
