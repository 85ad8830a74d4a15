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
#include "src/driver/host_costs.h"
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
  uint32_t area = 0;
  JhState state = JhState::kLog;
};

struct JhChain {
  std::vector<JhVersion> versions;  // ascending tx_id
  uint64_t NewestTxId() const { return versions.empty() ? 0 : versions.back().tx_id; }
};

class MqJournal : public Journal {
 public:
  MqJournal(Simulator* sim, BlockLayer* blk, BufferCache* cache, const FsLayout& layout,
            const HostCosts& costs, ExtFs* fs, const MqJournalOptions& options);

  Status Sync(const SyncOp& op, SyncMode mode) override;
  void RevokeBlock(BlockNo block) override;
  bool ForceJournalData(BlockNo block) override;
  Status Recover() override;
  Status Shutdown() override;
  bool SupportsAtomic() const override { return true; }

  uint64_t transactions() const { return transactions_; }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t revocations_cancelled() const { return revocations_cancelled_; }

 private:
  struct LoggedWrite {
    BlockNo home = 0;
    uint64_t tx_id = 0;
    Buffer content;
  };
  struct LoggedTx {
    uint64_t tx_id = 0;
    uint64_t blocks_used = 0;
    uint64_t end_offset = 0;
    std::vector<LoggedWrite> writes;
  };
  // Keeps the shadow copies and descriptor alive until the ccNVMe
  // transaction completes (fatomic returns before that).
  struct TxRecord {
    uint64_t tx_id = 0;
    uint32_t area = 0;
    uint64_t blocks_used = 0;
    uint64_t end_offset = 0;
    std::vector<std::shared_ptr<Buffer>> copies;
    std::shared_ptr<Buffer> jd;
    std::vector<LoggedWrite> writes;
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

  // Stages |op| as transaction |tx_id| on queue |qid| and rings its P-SQDB
  // (caller holds the area's build_mu).
  Result<CommittedTx> BuildTx(const SyncOp& op, uint32_t qid, uint32_t area_idx,
                              uint64_t tx_id);

  size_t TreeIndex(BlockNo home) const {
    return static_cast<size_t>((home / kBlocksPerGroup) % trees_.size());
  }
  // Called from the ccNVMe bottom half when the transaction is durable.
  void FinishTx(const std::shared_ptr<TxRecord>& rec);
  // Horizon-ordered global checkpoint (§5.2): frees space in |needy| by
  // writing back every area's versions up to a tx-id horizon.
  Status Checkpoint(uint32_t needy, uint64_t needed);
  // Keeps in |newest| the newest logged version of each of |tx|'s blocks.
  static void KeepNewest(const LoggedTx& tx, std::map<BlockNo, const LoggedWrite*>* newest);
  Status WriteAreaSuper(Area& area);
  uint64_t NextOff(const Area& area, uint64_t off) const {
    return off + 1 >= area.blocks ? 1 : off + 1;
  }

  Simulator* sim_;
  BlockLayer* blk_;
  BufferCache* cache_;
  HostCosts costs_;
  ExtFs* fs_;
  MqJournalOptions options_;

  std::vector<std::unique_ptr<Area>> areas_;
  std::vector<std::unique_ptr<RadixTree<JhChain>>> trees_;
  std::vector<std::unique_ptr<SimMutex>> tree_mu_;
  SimMutex ckpt_mu_;

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
