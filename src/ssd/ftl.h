// Demand-based flash translation layer under the SsdModel service model.
//
// The FTL owns the physical geometry of one device: |flash_pages| 4KB
// physical pages grouped into erase blocks of |pages_per_block|. Logical
// pages (LPNs) map to physical pages (PPNs) through a page-level L2P table
// that is itself paged: the table is cut into fixed-size segments (512
// entries = one 4KB flash page), only |map_cache_segments| of which are
// resident in controller RAM at a time. A lookup that misses the cache
// evicts the LRU segment (writing it back out-of-place if dirty) and loads
// the victim's flash copy — a real media read whose latency is charged to
// the foreground command and emitted as a `wait.ftl_map_miss` edge.
//
// Writes are out-of-place: AllocRun hands out physically contiguous pages
// from the open erase block, closing it (and wasting the tail) when a run
// does not fit. When the free-block pool drops to |gc_free_blocks_low|,
// greedy victim-selection garbage collection runs inline: the block with
// the most invalid pages is chosen, its valid pages (data and map pages
// alike) migrate to the open block, and the map is checkpointed so no
// durable state references the victim. The victim then joins the free pool
// at once, but its erase runs on a background engine that erases one block
// at a time: the block becomes allocatable when that erase completes. A run
// that needs a block still erasing is not waited for here — AllocRun
// returns kFtlBusy with the completion time, so the caller can wait without
// holding its lock (CommitReadyAt does the same for a commit's map
// writebacks). The migration pass is emitted as a `wait.ftl_gc` edge,
// making GC first-class profiler blame on the foreground op that ran it.
// Two passes in a row that do not raise the free page count (free-pool
// pages plus the open block's unwritten tail) end GC: the allocation
// reports the device full, and so does every later one until a host
// overwrite or unmap invalidates a page.
//
// A block holding a pinned page (an in-flight read or program the caller
// runs unlocked) is never picked as a GC victim, so it is never erased or
// reprogrammed under that I/O.
//
// The FTL is media-agnostic: flash I/O, erase latency, and map-root (GTD)
// persistence go through FtlEnv, implemented by the KV-SSD front-end
// (src/nvme/kv_ssd) over SsdModel + the controller PMR. Everything here
// runs under the caller's lock on a simulator actor; all media waits are
// virtual-time blocking calls.
#ifndef SRC_SSD_FTL_H_
#define SRC_SSD_FTL_H_

#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "src/common/bytes.h"
#include "src/sim/simulator.h"

namespace ccnvme {

// L2P entry / PPN sentinel: "no mapping" / "no page".
inline constexpr uint64_t kFtlUnmapped = ~0ull;
// AllocRun result: the run cannot be handed out yet (see AllocRun).
inline constexpr uint64_t kFtlBusy = ~0ull - 1;
// page_state lpn tag for pages that hold map segments, not user data:
// lpn = kFtlMapLpnBase + segment index.
inline constexpr uint64_t kFtlMapLpnBase = 1ull << 40;

struct FtlConfig {
  uint64_t flash_pages = 4096;          // physical 4KB pages on the device
  uint32_t pages_per_block = 64;        // erase-block size in pages
  uint64_t total_lpns = 3072;           // logical space (< physical: OP area)
  uint32_t map_entries_per_segment = 512;  // 512 x 8B = one 4KB flash page
  uint32_t map_cache_segments = 4;      // resident L2P segment frames
  uint32_t gc_free_blocks_low = 2;      // GC when free pool <= this
};

// Media + map-root services the FTL needs from its host device.
class FtlEnv {
 public:
  virtual ~FtlEnv() = default;
  // Durably persists "segment |seg|'s flash copy lives at |ppn|" (the
  // global translation directory root). Must be durable on return.
  virtual void PersistGtd(uint32_t seg, uint64_t ppn) = 0;
  // Reads the persisted GTD root for |seg| (attach); kFtlUnmapped = none.
  virtual uint64_t LoadGtd(uint32_t seg) = 0;
  // Writes/reads one 4KB flash page. Blocking (virtual-time) media ops.
  virtual bool FlashWrite(uint64_t ppn, const Buffer& data) = 0;
  virtual bool FlashRead(uint64_t ppn, Buffer* out) = 0;
  // Time one erase-block erase takes on the erase engine.
  virtual uint64_t EraseLatencyNs() const = 0;
  // All dirty map segments + GTD are durable; the host may now advance its
  // checkpoint sequence number (shadow entries at or below it are dead).
  virtual void OnMapCheckpointed() = 0;
};

class Ftl {
 public:
  Ftl(Simulator* sim, FtlEnv* env, const FtlConfig& config);

  // --- geometry -----------------------------------------------------------
  uint32_t num_blocks() const { return num_blocks_; }
  uint32_t num_segments() const { return num_segments_; }
  const FtlConfig& config() const { return config_; }

  // --- logical space ------------------------------------------------------
  // Allocates |n| consecutive free LPNs (lowest run wins, deterministic);
  // kFtlUnmapped if the logical space has no such run.
  uint64_t AllocLpnRun(uint32_t n);
  void FreeLpn(uint64_t lpn);
  // Attach: takes |lpn| out of the free set without mapping it (a staging
  // frame of the front-end holds it).
  void ClaimLpn(uint64_t lpn) { free_lpns_.erase(lpn); }

  // --- foreground data path ----------------------------------------------
  // Allocates |n| physically contiguous pages from the open erase block,
  // running GC first if the free pool is low. The caller writes the pages
  // (env FlashWrite) and then installs mappings. kFtlUnmapped = device full
  // (no room left, or GC stopped freeing pages).
  // kFtlBusy = retry later, without holding the caller's lock: the next
  // block is still erasing until |*ready_at| and the run needs it (or the
  // room CommitReadyAt keeps); or (|*ready_at| == 0) GC found only pinned
  // victims and must wait for a pin to drop.
  uint64_t AllocRun(uint32_t n, uint64_t* ready_at);
  // Map writebacks one commit may cause: installing a run and unmapping the
  // run it replaces load at most four segments (a run spans at most two),
  // each evicting a dirty frame, and a checkpoint writes every frame.
  uint32_t CommitWritebacks() const { return config_.map_cache_segments + 4; }
  // When a commit's writebacks can run without waiting for an erase: 0 if
  // the open block has room for them (or no block is left to wait for),
  // else when the next block's erase completes. A commit cannot be retried
  // once it starts, so the caller waits for this first, without its lock.
  uint64_t CommitReadyAt();
  // Abandons an allocated-but-unmapped run (media error mid-write): the
  // pages become invalid so GC can reclaim them.
  void DiscardRun(uint64_t ppn, uint32_t n);
  // Sets lpn -> ppn, invalidating the previous physical page if the LPN was
  // mapped. Demand-loads the owning segment; marks it dirty.
  void MapInstall(uint64_t lpn, uint64_t ppn);
  // Returns the PPN for |lpn| (demand-loading its segment), or kFtlUnmapped.
  uint64_t MapLookup(uint64_t lpn);
  // Unmaps |lpn|, invalidating its physical page. No-op if unmapped.
  void MapErase(uint64_t lpn);
  // Writes back every dirty resident segment + its GTD entry, then tells
  // the env (which advances the shadow checkpoint).
  void CheckpointMap();
  // Pins the block holding |ppn| for an I/O the caller runs unlocked; GC
  // never picks a pinned block as its victim. Unpin returns true when the
  // block's last pin dropped (a GC waiting on pins may now proceed).
  void Pin(uint64_t ppn) { blocks_[ppn / config_.pages_per_block].pins++; }
  bool Unpin(uint64_t ppn);

  // --- attach-time recovery ----------------------------------------------
  // Enters attach mode: the segment cache grows unbounded (no evictions,
  // hence no flash writes) until FinishAttach, because until liveness is
  // rebuilt an allocation could land on a block holding live pages.
  void BeginAttach() { attach_mode_ = true; }
  // Loads the GTD through the env and marks referenced map pages valid.
  void AttachLoadGtd();
  // Shadow replay: installs lpn -> ppn into the (cached) map WITHOUT page
  // accounting — physical liveness is rebuilt afterwards from the directory.
  void MapSetForReplay(uint64_t lpn, uint64_t ppn);
  // Declares |ppn| live for |lpn| while rebuilding liveness. Also removes
  // |lpn| from the free set. Returns false if |ppn| was already claimed
  // (double-mapped image — a consistency violation the caller reports).
  bool MarkLive(uint64_t lpn, uint64_t ppn);
  // Drops a mapping no live directory entry claims — the residue of an
  // aborted store (replayed shadow, or a mid-store checkpoint, whose commit
  // word never landed). No page accounting: the target was never marked
  // valid, and leaving the stale entry would make a later reallocation of
  // |lpn| invalidate a page it does not own.
  void MapClearUnclaimed(uint64_t lpn);
  // Classifies blocks (free vs full) from the rebuilt page states and
  // leaves the FTL ready for foreground traffic.
  void FinishAttach();

  // --- stats (bench/tools) ------------------------------------------------
  uint64_t host_pages_written() const { return host_pages_written_; }
  uint64_t media_pages_written() const { return media_pages_written_; }
  // Write amplification: media page programs / host page writes.
  double waf() const {
    return host_pages_written_ == 0
               ? 1.0
               : static_cast<double>(media_pages_written_) /
                     static_cast<double>(host_pages_written_);
  }
  uint64_t gc_runs() const { return gc_runs_; }
  // Erases handed to the erase engine (GC victims and attach-time deferred
  // erases alike).
  uint64_t erases() const { return erases_; }
  uint64_t gc_migrated_pages() const { return gc_migrated_pages_; }
  uint64_t map_loads() const { return map_loads_; }
  uint64_t map_hits() const { return map_hits_; }
  uint64_t map_writebacks() const { return map_writebacks_; }
  uint64_t free_blocks() const { return static_cast<uint64_t>(free_blocks_.size()); }
  uint64_t free_lpns() const { return static_cast<uint64_t>(free_lpns_.size()); }
  // Counts host-visible page programs (data pages the front-end wrote via
  // env->FlashWrite on an AllocRun). Called by the front-end per data page.
  void CountHostPage() { host_pages_written_++; }
  // Per-block valid-page count (ftl_inspect + tests).
  uint32_t block_valid_pages(uint32_t block) const { return blocks_[block].valid; }
  bool block_is_free(uint32_t block) const { return blocks_[block].free; }
  // When the block's last erase completes (0 = never erased since format).
  uint64_t block_ready_at(uint32_t block) const { return blocks_[block].ready_at; }

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

 private:
  enum class PageState : uint8_t { kFree = 0, kValid, kInvalid };
  struct Page {
    uint64_t lpn = kFtlUnmapped;  // owner LPN while kValid
    PageState state = PageState::kFree;
  };
  struct Block {
    uint32_t valid = 0;     // live pages (data + map)
    uint32_t pins = 0;      // in-flight unlocked I/Os; > 0 = not a GC victim
    bool free = true;       // in the free pool
    bool erased = true;     // erase issued (false: deferred from attach)
    uint64_t ready_at = 0;  // when the issued erase completes
  };
  struct Frame {
    std::vector<uint64_t> entries;  // map_entries_per_segment L2P words
    bool dirty = false;
  };

  Frame& GetFrame(uint32_t seg, bool count_stats);
  void WritebackSegment(uint32_t seg, Frame& frame);
  // Single-page allocation for GC migration and map writeback: never
  // recurses into GC (the reserved free pool covers it).
  uint64_t AllocSinglePage();
  // When the front of the free pool becomes allocatable; issues its erase
  // first if it was deferred at attach.
  uint64_t NextBlockReadyAt();
  void OpenNextBlock();
  // Queues |block|'s erase behind the engine's current one.
  void ScheduleErase(uint32_t block);
  void MarkInvalid(uint64_t ppn);
  void MarkValid(uint64_t ppn, uint64_t lpn);
  enum class GcResult { kOk, kPinned, kFull };
  // Runs GC passes until the free pool is above the low-water mark.
  // kPinned: it needs a pass but every candidate victim is pinned. kFull:
  // two passes in a row did not raise FreePages(), or GC already reported
  // full and no host invalidation has happened since.
  GcResult MaybeGc();
  void GcOnce(uint32_t victim);
  // Free-pool pages plus the open block's unwritten tail.
  uint64_t FreePages() const;

  Simulator* sim_;
  FtlEnv* env_;
  FtlConfig config_;
  uint32_t num_blocks_ = 0;
  uint32_t num_segments_ = 0;

  std::vector<Page> pages_;
  std::vector<Block> blocks_;
  std::list<uint32_t> free_blocks_;  // FIFO: erase order = reuse order
  uint32_t open_block_ = 0;
  uint32_t write_ptr_ = 0;  // next page index inside open_block_
  bool block_open_ = false;

  std::vector<uint64_t> gtd_;        // segment -> flash copy PPN (RAM mirror)
  std::map<uint32_t, Frame> frames_;  // resident segments (sorted: determinism)
  std::list<uint32_t> lru_;           // front = most recent

  std::set<uint64_t> free_lpns_;

  bool attach_mode_ = false;
  bool gc_futile_ = false;  // GC reported full; cleared by host invalidations
  uint64_t erase_busy_until_ = 0;  // the erase engine's last completion time
  uint64_t host_pages_written_ = 0;
  uint64_t media_pages_written_ = 0;
  uint64_t gc_runs_ = 0;
  uint64_t erases_ = 0;
  uint64_t gc_migrated_pages_ = 0;
  uint64_t map_loads_ = 0;
  uint64_t map_hits_ = 0;
  uint64_t map_writebacks_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_SSD_FTL_H_
