// NVLog: a transparent NVM write-ahead log fronting the disk file system
// (arXiv 2408.02911), wired in as the third durability architecture next to
// ccNVMe/MQFS and classic jbd2/extfs.
//
// Absorb-then-drain: Sync() appends one log entry (every dirty block of the
// op, data AND metadata, with per-block content checksums) to the NVM ring
// and returns as soon as a flush+fence barrier makes the entry durable —
// the disk sees NOTHING on the critical path. A background drainer wakes
// after an absorb window, checkpoints batches of entries to their home
// locations through the block stack (coalescing repeated writes to the
// same block), and then truncates the log by advancing the persistent
// drain frontier. Mount-time recovery replays the undrained tail.
//
// Ordering invariant (the 13th online monitor, nvm.log_drain_order): no
// checkpoint block may reach media before its covering log entry is
// durable in NVM — otherwise a crash between the two leaves a half-applied
// sync with no log entry to replay it from. The test_skip_nvlog_fence knob
// breaks exactly this on purpose.
//
// RevokeBlock is deliberately a no-op: unlike jbd2's ordered mode, NVLog
// routes EVERY durable write (data and metadata) through the log with a
// monotonically increasing sequence, and both drain and recovery apply
// entries in sequence order — a reused block's newest content always wins,
// so stale-replay cannot happen by construction.
#ifndef SRC_NVM_NVLOG_H_
#define SRC_NVM_NVLOG_H_

#include <deque>
#include <map>
#include <vector>

#include "src/block/block_layer.h"
#include "src/driver/host_costs.h"
#include "src/nvm/nvlog_format.h"
#include "src/nvm/nvm_device.h"
#include "src/sim/sync.h"
#include "src/vfs/journal.h"

namespace ccnvme {

class ExtFs;

// In-memory cursors over the on-NVM ring (src/nvm/nvlog_format.h). All
// mutation goes through the NvmDevice, so every store is timed, recorded
// for the crash tests, and volatile until the next fence.
class NvLog {
 public:
  NvLog(Simulator* sim, NvmDevice* nvm);

  // Formats a fresh log if no valid one exists, then initializes the
  // cursors from a scan of the surviving image, charged for the bytes the
  // scan read. Must run inside an actor (timed NVM traffic). Returns the
  // scanned undrained tail.
  NvLogScan Init();

  size_t ring_bytes() const { return nvm_->size() - kNvLogCtrlBytes; }
  size_t used_bytes() const { return used_bytes_; }
  // One appended entry plus its 8-byte end marker must fit.
  bool HasSpace(size_t entry_bytes) const {
    return used_bytes_ + entry_bytes + kNvmWordSize < ring_bytes();
  }

  // Appends one entry (header + payloads + zeroed end-marker word) at the
  // tail. Volatile until Fence(). Returns the entry's sequence number.
  uint64_t Append(uint64_t tx_id, const std::vector<NvLogBlock>& blocks);

  // Persist barrier: every entry appended before it begins becomes durable.
  // One appended while its flush is in progress waits for a later barrier.
  void Fence();

  // Advances the persistent drain frontier past |freed_bytes| of drained
  // entries (an 8-byte head-word store + fence — atomic truncation).
  void AdvanceHead(uint32_t new_off, uint64_t new_seq, size_t freed_bytes);

  // Reads one logged block (home LBA + payload) back from NVM — the
  // drainer's read path, charged at NVM load cost.
  NvLogBlock LoadBlock(uint32_t entry_ring_off, size_t nblocks, size_t block_index);

  uint32_t head_off() const { return head_off_; }
  uint64_t head_seq() const { return head_seq_; }
  uint32_t tail_off() const { return tail_off_; }
  uint64_t next_seq() const { return next_seq_; }
  // Sequence number of the newest entry covered by a persist barrier.
  uint64_t durable_seq() const { return durable_seq_; }
  NvmDevice* nvm() { return nvm_; }

 private:
  // Wrap-aware ring store at ring-relative |off|.
  void RingStore(size_t off, std::span<const uint8_t> data);
  // Wrap-aware ring load of |out.size()| bytes at ring-relative |off|.
  void RingLoad(size_t off, std::span<uint8_t> out);

  Simulator* sim_;
  NvmDevice* nvm_;
  uint32_t head_off_ = 0;
  uint64_t head_seq_ = 0;
  uint32_t tail_off_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t appended_seq_ = 0;
  uint64_t durable_seq_ = 0;
  size_t used_bytes_ = 0;
};

struct NvLogOptions {
  uint32_t drain_batch = 8;         // max entries checkpointed per batch
  uint64_t drain_delay_ns = 30000;  // absorb window before a batch starts
  // Size of the background drainer pool. Batches are claimed in log order
  // but checkpoint concurrently; the persistent drain frontier still only
  // ever advances over the contiguous completed prefix, and two in-flight
  // batches never cover the same home block (a later entry for a claimed
  // block waits), so newest-wins and log-before-checkpoint both survive.
  uint32_t drainers = 1;
  // TEST ONLY: fsync returns WITHOUT the flush+fence persist barrier, so
  // the "durable" log entry is still sitting in the cache hierarchy. The
  // nvm.log_drain_order monitor and the crash explorer must both catch it.
  bool test_skip_fence = false;
};

class NvLogJournal : public Journal {
 public:
  NvLogJournal(Simulator* sim, BlockLayer* blk, NvmDevice* nvm, const HostCosts& costs,
               ExtFs* fs, const NvLogOptions& options);

  Status Sync(const SyncOp& op, SyncMode mode) override;
  // No-op by design — see the file comment.
  void RevokeBlock(BlockNo block) override { (void)block; }
  Status Recover() override;
  Status Shutdown() override;
  void StopActors() override;

  NvLog& log() { return log_; }
  uint64_t appended_entries() const { return appended_entries_; }
  uint64_t drained_entries() const { return drained_entries_; }
  uint64_t drain_batches() const { return drain_batches_; }
  uint64_t coalesced_blocks() const { return coalesced_blocks_; }

 private:
  struct PendingEntry {
    uint64_t seq = 0;
    uint32_t ring_off = 0;
    size_t entry_bytes = 0;
    std::vector<uint64_t> home_lbas;
  };
  // One claimed batch: contiguous run of pending entries popped by a
  // drainer. end_off/end_seq are what AdvanceHead gets once every earlier
  // batch has also completed.
  struct Batch {
    uint64_t id = 0;
    std::vector<PendingEntry> entries;
    uint32_t end_off = 0;
    uint64_t end_seq = 0;
    size_t freed_bytes = 0;
  };

  void DrainLoop();
  // True when the oldest pending entry exists, a persist barrier covers it
  // (log before checkpoint), and it overlaps no in-flight batch's home
  // blocks (caller holds mu_).
  bool CanClaimFront() const;
  // Pops a conflict-free contiguous run off pending_, claims its home blocks
  // and reports each entry to the drain-order monitor (caller holds mu_).
  // Empty batch when nothing is claimable.
  Batch ClaimBatch(bool rush);
  // Checkpoints one claimed batch through the block stack.
  Status DrainBatch(const Batch& batch);
  // Releases |batch|'s claims, records it completed, and advances the drain
  // frontier over the contiguous completed prefix (caller holds mu_).
  void RetireBatch(const Batch& batch);

  Simulator* sim_;
  BlockLayer* blk_;
  NvmDevice* nvm_;
  HostCosts costs_;
  ExtFs* fs_;
  NvLogOptions options_;
  NvLog log_;
  // The tail log_.Init() found at construction, kept for Recover to replay.
  NvLogScan mount_scan_;

  // Covers tx-id and sequence assignment, the space wait, the copy into the
  // ring and the pending-list push: appends stay in sequence order. An
  // appender's persist barrier and wake-up run after it is released.
  SimMutex mu_;
  SimCondVar drain_cv_;  // durable entries are waiting / a conflict cleared
  SimCondVar space_cv_;  // a drain batch freed ring space
  SimCondVar idle_cv_;   // nothing pending and no batch in flight
  std::deque<PendingEntry> pending_;
  bool drain_all_ = false;   // shutdown: skip the absorb window
  uint32_t draining_ = 0;    // batches between claim and retire
  bool stopping_ = false;    // StopActors: idle drainers return
  uint32_t live_drainers_ = 0;
  SimCompletion stopped_;    // the last drainer has returned
  // Home blocks covered by in-flight batches: a later log entry for one of
  // these may not be claimed until the earlier batch retires.
  std::map<uint64_t, uint32_t> claimed_lbas_;
  uint64_t next_batch_id_ = 0;     // claim order == log order
  uint64_t next_retire_id_ = 0;    // frontier may advance up to here
  // Completed batches waiting for an earlier one (keyed by batch id).
  std::map<uint64_t, Batch> completed_;

  uint64_t appended_entries_ = 0;
  uint64_t drained_entries_ = 0;
  uint64_t drain_batches_ = 0;
  uint64_t coalesced_blocks_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_NVM_NVLOG_H_
