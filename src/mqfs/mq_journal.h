// MQFS multi-queue journaling over ccNVMe (§5).
//
// Each hardware queue owns a journal area; a sync call builds a ccNVMe
// transaction *in the application's context* (no commit thread):
//
//   in-place data blocks     -> REQ_TX writes to their home LBAs
//   metadata blocks          -> shadow-paged copies (§5.3) written as
//                               REQ_TX to per-area journal blocks
//   descriptor (JH/JD) block -> REQ_TX_COMMIT; no separate commit record —
//                               ringing the P-SQDB plays that role (§5.1),
//                               and per-block content checksums in the
//                               descriptor validate the transaction at
//                               recovery.
//
// fsync waits for the transaction's in-order durable completion; fatomic /
// fdataatomic return at the atomicity point (the doorbell) and the rest of
// the pipeline completes in the background.
//
// Cross-core coordination uses per-area radix trees indexed by home block
// (§5.2): logging appends a version (state `log`), checkpointing marks
// `chp`, skips stale versions, and a horizon-ordered global checkpoint
// keeps recovery's replay-by-TxID correct. Block reuse is handled by
// selective revocation (§5.4): a revoke against a block being checkpointed
// is cancelled and the block's next write regresses to data journaling.
#ifndef SRC_MQFS_MQ_JOURNAL_H_
#define SRC_MQFS_MQ_JOURNAL_H_

#include <deque>
#include <map>
#include <memory>
#include <set>

#include "src/block/block_layer.h"
#include "src/extfs/layout.h"
#include "src/jbd2/journal_format.h"
#include "src/mqfs/radix_tree.h"
#include "src/vfs/journal.h"

namespace ccnvme {

class ExtFs;

struct MqJournalOptions {
  bool shadow_paging = true;  // §5.3
  // TEST ONLY: skip the P-SQ window scan during recovery (see ExtFsOptions).
  bool test_skip_psq_window_scan = false;
};

enum class JhState : uint8_t { kLog, kChp, kLogged };

// One journaled version of a home block (a JH entry of Figure 6).
struct JhVersion {
  uint64_t tx_id = 0;
  BlockNo journal_lba = 0;
  uint32_t area = 0;  // the journal area whose checkpoint list takes it
  JhState state = JhState::kLog;
};

struct JhChain {
  // In publish order: areas build concurrently, so tx ids may interleave.
  std::vector<JhVersion> versions;
};

class MqJournal : public Journal {
 public:
  MqJournal(Simulator* sim, BlockLayer* blk, BufferCache* cache, const FsLayout& layout,
            ExtFs* fs, const MqJournalOptions& options);

  Status Sync(const SyncOp& op, SyncMode mode) override;
  void RevokeBlock(BlockNo block) override;
  bool ForceJournalData(BlockNo block) override;
  Status Recover() override;
  Status Shutdown() override;
  bool SupportsAtomic() const override { return true; }

  uint64_t transactions() const { return transactions_; }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t revocations_cancelled() const { return revocations_cancelled_; }

  // Per home block on the checkpoint lists: how many of its versions are
  // listed, and how many of those still hold bytes.
  struct ListedBlock {
    size_t versions = 0;
    size_t copies = 0;
  };
  std::map<BlockNo, ListedBlock> ListedBlocks() const;

 private:
  // One journaled version of a home block. |content| is its only host copy:
  // the shadow copy BuildTx made (a copy of the frozen page without shadow
  // paging), which the transaction's journal write reads while in flight.
  // It is null once a newer version of the block is listed where it is sure
  // to supersede this one (ListVersion): no checkpoint or shutdown can write
  // this version home then. A checkpoint or shutdown holds its own reference
  // to what it writes, so releasing the list's reference never frees bytes
  // a write still reads.
  struct LoggedWrite {
    BlockNo home = 0;
    uint64_t tx_id = 0;
    std::shared_ptr<const Buffer> content;
  };
  struct LoggedTx {
    uint64_t tx_id = 0;
    uint64_t blocks_used = 0;
    uint64_t end_offset = 0;
    std::vector<LoggedWrite> writes;
  };
  // A transaction from BuildTx until FinishTx moves |tx| to the checkpoint
  // list. Keeps its writes' bytes and the descriptor alive until the ccNVMe
  // transaction completes (fatomic returns before that).
  struct TxRecord {
    LoggedTx tx;
    uint32_t area = 0;
    std::shared_ptr<Buffer> jd;
    bool durable = false;
  };
  struct Area {
    explicit Area(Simulator* sim) : mu(sim), build_mu(sim), quiesced(sim) {}
    BlockNo start = 0;
    uint64_t blocks = 0;
    uint64_t head = 1;
    uint64_t free = 0;
    AreaSuperblock asb;
    SimMutex mu;
    // Serializes transaction construction on this queue, from tx-id
    // allocation through the P-SQDB ring in CommitTx: two threads bound to
    // the same core never interleave mid-transaction on real hardware
    // (§4.5's no-migration rule), and ccNVMe forbids interleaved open
    // transactions on one hardware queue. It is not held while the
    // transaction is in flight.
    SimMutex build_mu;
    // Committed transactions not yet moved to |ckpt|, in commit order.
    std::deque<std::shared_ptr<TxRecord>> committed;
    // Durably logged transactions awaiting checkpoint, in tx order.
    std::deque<LoggedTx> ckpt;
    SimCondVar quiesced;  // |committed| became empty
  };
  // What Sync still waits for once build_mu is released.
  struct CommittedTx {
    CcNvmeDriver::TxHandle tx;
    // Data blocks past the P-SQ bound, written on the ordinary path.
    std::vector<NvmeDriver::RequestHandle> overflow;
  };

  // Stages |op| as transaction |tx_id| on the current queue and rings its
  // P-SQDB (caller holds the area's build_mu).
  Result<CommittedTx> BuildTx(const SyncOp& op, uint32_t area_idx, uint64_t tx_id);

  size_t TreeIndex(BlockNo home) const {
    return static_cast<size_t>((home / kBlocksPerGroup) % trees_.size());
  }
  // Called from the ccNVMe bottom half when the transaction is durable.
  void FinishTx(const std::shared_ptr<TxRecord>& rec);
  // Marks |w|'s version logged as it reaches a checkpoint list, and drops
  // the bytes of whichever of it and the block's newest anchored version
  // (logged above popped_horizon_) is older.
  void ListVersion(LoggedWrite& w);
  // |v|'s write of |home| on its area's checkpoint list.
  LoggedWrite& ListedWrite(const JhVersion& v, BlockNo home);
  // Horizon-ordered global checkpoint (§5.2): frees space in |needy| by
  // writing back every area's versions up to a tx-id horizon.
  Status Checkpoint(uint32_t needy, uint64_t needed);
  // Keeps in |newest| the newest logged version of each of |tx|'s blocks.
  static void KeepNewest(const LoggedTx& tx, std::map<BlockNo, LoggedWrite>* newest);
  Status WriteAreaSuper(Area& area);
  uint64_t NextOff(const Area& area, uint64_t off) const {
    return off + 1 >= area.blocks ? 1 : off + 1;
  }

  Simulator* sim_;
  BlockLayer* blk_;
  BufferCache* cache_;
  ExtFs* fs_;
  MqJournalOptions options_;

  std::vector<std::unique_ptr<Area>> areas_;
  std::vector<std::unique_ptr<RadixTree<JhChain>>> trees_;
  std::vector<std::unique_ptr<SimMutex>> tree_mu_;
  SimMutex ckpt_mu_;
  // The highest horizon a checkpoint has taken versions off the lists up
  // to. A logged version above it is on its list, and its chain entry stays
  // until a checkpoint takes it off: it anchors the drop of older bytes.
  // One at or below it may be a popped version a running checkpoint has not
  // pruned yet, or a late one such a checkpoint will prune while it is
  // still listed.
  uint64_t popped_horizon_ = 0;

  Revocations revoked_;  // accepted revocations
  // §5.4 case 1: blocks whose next data write must be journaled.
  std::set<BlockNo> force_journal_;
  // Revocations to embed in the next descriptor, per area.
  std::vector<std::vector<BlockNo>> pending_revocations_;

  uint64_t transactions_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t revocations_cancelled_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_MQFS_MQ_JOURNAL_H_
