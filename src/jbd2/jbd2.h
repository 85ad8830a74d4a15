// Classic journaling (JBD2) and the no-journal baseline.
//
// Jbd2Journal models Ext4's crash-consistency machinery:
//   * a single global *running transaction* that concurrent fsyncs join
//     (group commit),
//   * a dedicated commit thread (kjournald) that writes
//     [descriptor][journaled blocks][commit record] into the journal area,
//   * ordering points: in classic mode the commit record is issued only
//     after the journaled blocks complete, and carries PREFLUSH|FUA,
//   * checkpointing: frozen copies of journaled blocks are later written in
//     place and the log tail advances,
//   * revocation records for the block-reuse problem,
//   * mount-time recovery: scan, validate, replay.
//
// The `horae` option models HoraeFS (OSDI'20): the ordering points are
// removed — journaled blocks, descriptor and commit record are dispatched
// together and only their joint completion is awaited (Horae's dedicated
// ordering control path guarantees the persist order) — while the commit
// record, commit thread and PCIe traffic stay identical to Ext4, exactly as
// Table 1 characterizes it.
//
// NullJournal is Ext4-NJ: fsync writes everything in place and flushes.
#ifndef SRC_JBD2_JBD2_H_
#define SRC_JBD2_JBD2_H_

#include <deque>
#include <map>
#include <memory>
#include <set>

#include "src/block/block_layer.h"
#include "src/driver/host_costs.h"
#include "src/extfs/layout.h"
#include "src/jbd2/journal_format.h"
#include "src/vfs/journal.h"

namespace ccnvme {

class ExtFs;

class NullJournal : public Journal {
 public:
  NullJournal(Simulator* sim, BlockLayer* blk, BufferCache* cache, const HostCosts& costs)
      : sim_(sim), blk_(blk), cache_(cache), costs_(costs) {}

  Status Sync(const SyncOp& op, SyncMode mode) override;
  void RevokeBlock(BlockNo block) override { (void)block; }
  Status Recover() override { return OkStatus(); }
  Status Shutdown() override { return OkStatus(); }

 private:
  Simulator* sim_;
  BlockLayer* blk_;
  BufferCache* cache_;
  HostCosts costs_;
};

struct Jbd2Options {
  bool horae = false;
  // "+ccNVMe" of Figure 13: keep JBD2's structure (global running
  // transaction, dedicated commit thread, freeze-during-commit) but commit
  // through a ccNVMe transaction — no commit record, no ordering points,
  // one flush + one doorbell.
  bool over_ccnvme = false;
};

class Jbd2Journal : public Journal {
 public:
  Jbd2Journal(Simulator* sim, BlockLayer* blk, BufferCache* cache, const FsLayout& layout,
              const HostCosts& costs, ExtFs* fs, const Jbd2Options& options);

  Status Sync(const SyncOp& op, SyncMode mode) override;
  void RevokeBlock(BlockNo block) override;
  Status Recover() override;
  Status Shutdown() override;
  void StopActors() override;

  uint64_t commits() const { return commits_; }
  uint64_t checkpoints() const { return checkpoints_; }

 private:
  struct TxState {
    explicit TxState(Simulator* sim) : durable(sim) {}
    uint64_t tx_id = 0;
    std::vector<BlockBufPtr> metadata;
    std::set<BlockNo> members;
    int waiters = 0;  // fsync callers group-committed by this transaction
    SimCompletion durable;
  };

  struct CheckpointTx {
    uint64_t tx_id = 0;
    uint64_t blocks_used = 0;
    uint64_t end_offset = 0;  // area offset just past this transaction
    std::vector<std::pair<BlockNo, Buffer>> writes;  // frozen copies
  };

  void CommitLoop();
  Status CommitOne(const std::shared_ptr<TxState>& tx);
  // |tx| is durable in the log, in |blocks_used| blocks: queue its frozen
  // copies for checkpoint and release its pages.
  Status Committed(const std::shared_ptr<TxState>& tx, uint64_t blocks_used);
  // Frees journal space by writing back the oldest checkpointable
  // transactions until |needed| blocks are available.
  Status CheckpointUntilFree(uint64_t needed);
  Status WriteAreaSuper();
  uint64_t NextOff(uint64_t off) const { return off + 1 >= area_.blocks ? 1 : off + 1; }
  BlockNo AreaLba(uint64_t off) const { return area_.start + off; }

  Simulator* sim_;
  BlockLayer* blk_;
  BufferCache* cache_;
  HostCosts costs_;
  ExtFs* fs_;
  Jbd2Options options_;

  JournalArea area_;  // one compound area: all the layout's areas fused
  uint64_t head_off_ = 1;
  uint64_t free_blocks_;
  AreaSuperblock asb_;

  SimMutex mu_;
  SimCondVar commit_cv_;
  SimMutex ckpt_mu_;
  std::shared_ptr<TxState> running_;
  bool commit_requested_ = false;
  bool stopping_ = false;     // StopActors: kjournald returns once idle
  SimCompletion stopped_;     // kjournald has returned
  std::vector<BlockNo> pending_revocations_;
  Revocations revoked_;
  std::deque<CheckpointTx> checkpoint_list_;

  uint64_t commits_ = 0;
  uint64_t checkpoints_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_JBD2_JBD2_H_
