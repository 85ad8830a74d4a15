// ExtFs: the ext4-like file system all compared systems share (§7.1: "all
// the tested file systems are based on the same codebase of the Ext4").
//
// The journaling machinery is pluggable (vfs/journal.h):
//   kClassic    -> Ext4           (JBD2: descriptor + commit record, FLUSH/FUA
//                                  ordering points, single commit thread)
//   kHorae      -> HoraeFS        (ordering points removed, commit record and
//                                  commit thread retained)
//   kNone       -> Ext4-NJ        (no journal, in-place writes + flush)
//   kMultiQueue -> MQFS           (multi-queue journaling over ccNVMe with
//                                  metadata shadow paging and selective
//                                  revocation; adds fatomic/fdataatomic)
//   kNvlog      -> NVLog/extfs    (transparent NVM write-ahead log: fsync
//                                  appends to byte-addressable NVM and
//                                  returns at flush+fence; a background
//                                  drainer checkpoints to the block stack)
//
// All metadata (superblock, bitmaps, inode table, directories) is serialized
// to the simulated media, so a crash test can remount from raw bytes.
#ifndef SRC_EXTFS_EXTFS_H_
#define SRC_EXTFS_EXTFS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/driver/host_costs.h"
#include "src/extfs/alloc.h"
#include "src/extfs/layout.h"
#include "src/vfs/buffer_cache.h"
#include "src/vfs/inode.h"
#include "src/vfs/journal.h"

namespace ccnvme {

struct ExtFsOptions {
  JournalKind journal = JournalKind::kClassic;
  uint32_t journal_areas = 1;       // kMultiQueue: one per hardware queue
  uint64_t journal_blocks = 16384;  // 64 MB total, split across areas
  bool data_journaling = false;
  // MQFS knob (§5.3); ignored by the other journals.
  bool metadata_shadow_paging = true;
  // TEST ONLY: recovery ignores the driver's P-SQ window and trusts every
  // scanned descriptor without validating its per-block content checksums.
  // This is the paper's recovery contract broken on purpose — the crash
  // explorer must catch it (replaying half-persisted transactions).
  bool test_skip_psq_window_scan = false;
  // TEST ONLY: breaks Fsync's cross-core group commit on purpose — a
  // follower that finds a leader in flight returns immediately, claiming
  // durability the leader's commit may not include. The
  // fs.fsync_cross_core_order monitor and the multi-core crash exploration
  // must both catch it.
  bool test_skip_cross_core_order = false;
  // NVLog knobs (kNvlog only): drain batch size, the absorb window the
  // background drainer waits before checkpointing, and the size of the
  // drainer pool (extra drainers overlap checkpoint I/O, shrinking the
  // wait.nvlog_drain backpressure edge when the ring runs full).
  uint32_t nvlog_drain_batch = 8;
  uint64_t nvlog_drain_delay_ns = 30000;
  uint32_t nvlog_drainers = 1;
  // TEST ONLY: fsync returns without the NVM flush+fence persist barrier,
  // claiming durability the log does not have. The nvm.log_drain_order
  // monitor and the crash explorer must both catch it.
  bool test_skip_nvlog_fence = false;
};

struct DirEntry {
  InodeNum ino;
  FileType type;
  std::string name;
};

class ExtFs {
 public:
  ExtFs(Simulator* sim, BlockLayer* blk, const HostCosts& costs, const ExtFsOptions& options);
  ~ExtFs();

  // Formats the device. Called once per fresh media.
  static Status Mkfs(Simulator* sim, BlockLayer* blk, uint64_t total_blocks,
                     const ExtFsOptions& options);

  // Mounts: reads the superblock, builds the journal, runs crash recovery
  // if the previous mount did not shut down cleanly.
  Status Mount();
  // Graceful shutdown (§5.5): waits for in-flight transactions, checkpoints
  // the journal, clears the dirty flag.
  Status Unmount();

  // --- Namespace operations ----------------------------------------------
  Result<InodeNum> Create(const std::string& path);
  Status Mkdir(const std::string& path);
  Result<InodeNum> Lookup(const std::string& path);
  Status Unlink(const std::string& path);
  Status Rmdir(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  Status Link(const std::string& existing, const std::string& link_path);
  Result<std::vector<DirEntry>> ListDir(const std::string& path);

  // --- File I/O ------------------------------------------------------------
  Status Write(InodeNum ino, uint64_t offset, std::span<const uint8_t> data);
  Status Append(InodeNum ino, std::span<const uint8_t> data);
  Status Read(InodeNum ino, uint64_t offset, std::span<uint8_t> out);
  Result<uint64_t> FileSize(InodeNum ino);
  // Shrinks or grows the file. Shrinking frees blocks (with journal
  // revocation for reuse safety); growing leaves a hole.
  Status Truncate(InodeNum ino, uint64_t new_size);

  struct StatInfo {
    InodeNum ino = kInvalidInode;
    FileType type = FileType::kNone;
    uint32_t nlink = 0;
    uint64_t size = 0;
    uint64_t mtime_ns = 0;
    uint64_t blocks = 0;  // allocated 4 KB blocks
  };
  Result<StatInfo> Stat(InodeNum ino);
  Result<StatInfo> StatPath(const std::string& path);

  // --- Synchronization primitives (§5.1) -----------------------------------
  Status Fsync(InodeNum ino);
  // Atomicity without durability; falls back to fsync semantics when the
  // journal cannot decouple them (everything but MQFS).
  Status Fatomic(InodeNum ino);
  Status Fdataatomic(InodeNum ino);
  // Directory fsync by path (used by Varmail and the crash tests).
  Status FsyncPath(const std::string& path);

  Journal* journal() { return journal_.get(); }
  const FsLayout& layout() const { return layout_; }
  BufferCache* cache() { return &cache_; }
  Allocator* allocator() { return alloc_.get(); }
  BlockLayer* block_layer() { return blk_; }
  const HostCosts& costs() const { return costs_; }

  // Consistency check used by the crash tests: walks the directory tree and
  // verifies inodes, link counts and directory structure parse cleanly.
  Status CheckConsistency();

 private:
  Result<InodePtr> GetInode(InodeNum ino);
  // Serializes the in-memory inode into its inode-table block (page-locked)
  // and returns the table block for journaling.
  Result<BlockBufPtr> FlushInodeToTable(const InodePtr& inode);
  Result<InodePtr> ResolvePath(const std::string& path);
  Result<InodePtr> ResolveParent(const std::string& path, std::string* leaf);

  // Directory helpers; |touched| accumulates dirtied metadata blocks.
  Result<InodeNum> DirLookup(const InodePtr& dir, const std::string& name);
  Status DirAdd(const InodePtr& dir, const std::string& name, InodeNum ino, FileType type,
                std::set<BlockNo>* touched);
  Status DirRemove(const InodePtr& dir, const std::string& name, std::set<BlockNo>* touched);
  Result<std::vector<DirEntry>> DirList(const InodePtr& dir);

  // Maps file block |index| to an LBA, allocating on demand.
  Result<BlockNo> FileBlock(const InodePtr& inode, uint64_t index, bool allocate,
                            std::set<BlockNo>* touched);
  // Frees all blocks of an inode (unlink of last reference).
  Status FreeInodeBlocks(const InodePtr& inode, std::set<BlockNo>* touched);

  Status SyncInternal(InodeNum ino, SyncMode mode);
  // Common unlink helper for Unlink/Rmdir/Rename-overwrite.
  Status DropLink(const InodePtr& parent, const std::string& name, bool expect_dir,
                  std::set<BlockNo>* touched);

  // Blocks until |buf| is not under writeback, then locks its page lock.
  void LockForUpdate(const BlockBufPtr& buf);

  Simulator* sim_;
  BlockLayer* blk_;
  HostCosts costs_;
  ExtFsOptions options_;
  BufferCache cache_;
  FsLayout layout_;
  std::unique_ptr<Allocator> alloc_;
  std::unique_ptr<Journal> journal_;
  bool mounted_ = false;

  SimMutex inode_cache_mu_;
  std::unordered_map<InodeNum, InodePtr> inode_cache_;
  // Global transaction counter — MQFS's linearization point (§5.1). The
  // classic journal uses it for commit sequence numbers too.
  uint64_t next_tx_id_ = 1;
  // Trace request-flow ids, one per sync call (allocated whether or not a
  // tracer is attached so tracing never perturbs behavior).
  uint64_t next_req_id_ = 1;

 public:
  uint64_t AllocTxId() { return next_tx_id_++; }
};

}  // namespace ccnvme

#endif  // SRC_EXTFS_EXTFS_H_
