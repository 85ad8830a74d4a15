#include "src/ssd/ftl.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/trace/trace_context.h"
#include "src/trace/tracer.h"

namespace ccnvme {

namespace {
constexpr uint64_t kPageBytes = 4096;
}  // namespace

Ftl::Ftl(Simulator* sim, FtlEnv* env, const FtlConfig& config)
    : sim_(sim), env_(env), config_(config) {
  CCNVME_CHECK(config_.pages_per_block > 0);
  CCNVME_CHECK(config_.flash_pages % config_.pages_per_block == 0)
      << "flash_pages must be a whole number of erase blocks";
  CCNVME_CHECK(config_.map_entries_per_segment * 8 == kPageBytes)
      << "one map segment must fill exactly one flash page";
  num_blocks_ = static_cast<uint32_t>(config_.flash_pages / config_.pages_per_block);
  num_segments_ = static_cast<uint32_t>(
      (config_.total_lpns + config_.map_entries_per_segment - 1) /
      config_.map_entries_per_segment);
  CCNVME_CHECK(config_.map_cache_segments > 0);
  CCNVME_CHECK(num_blocks_ > config_.gc_free_blocks_low + 1)
      << "geometry leaves no usable blocks above the GC reserve";
  pages_.resize(config_.flash_pages);
  blocks_.resize(num_blocks_);
  for (uint32_t b = 0; b < num_blocks_; ++b) {
    free_blocks_.push_back(b);
  }
  gtd_.assign(num_segments_, kFtlUnmapped);
  for (uint64_t lpn = 0; lpn < config_.total_lpns; ++lpn) {
    free_lpns_.insert(lpn);
  }
}

// --- logical space ---------------------------------------------------------

uint64_t Ftl::AllocLpnRun(uint32_t n) {
  if (n == 0) {
    return kFtlUnmapped;
  }
  uint64_t run_start = kFtlUnmapped;
  uint32_t run_len = 0;
  for (uint64_t lpn : free_lpns_) {
    if (run_len != 0 && lpn == run_start + run_len) {
      run_len++;
    } else {
      run_start = lpn;
      run_len = 1;
    }
    if (run_len == n) {
      for (uint64_t i = 0; i < n; ++i) {
        free_lpns_.erase(run_start + i);
      }
      return run_start;
    }
  }
  return kFtlUnmapped;
}

void Ftl::FreeLpn(uint64_t lpn) { free_lpns_.insert(lpn); }

// --- page-state helpers ----------------------------------------------------

void Ftl::MarkValid(uint64_t ppn, uint64_t lpn) {
  Page& p = pages_[ppn];
  CCNVME_CHECK(p.state != PageState::kValid) << "double-program of ppn " << ppn;
  p.state = PageState::kValid;
  p.lpn = lpn;
  blocks_[ppn / config_.pages_per_block].valid++;
}

void Ftl::MarkInvalid(uint64_t ppn) {
  Page& p = pages_[ppn];
  if (p.state == PageState::kValid) {
    blocks_[ppn / config_.pages_per_block].valid--;
  }
  p.state = PageState::kInvalid;
  p.lpn = kFtlUnmapped;
}

// --- allocation ------------------------------------------------------------

uint64_t Ftl::NextBlockReadyAt() {
  CCNVME_CHECK(!free_blocks_.empty()) << "FTL out of free blocks";
  const uint32_t next = free_blocks_.front();
  if (!blocks_[next].erased) {
    // Deferred erase: the block was reclaimed logically at attach (or GC
    // completed before a crash erased it); erase it before first use.
    ScheduleErase(next);
  }
  return blocks_[next].ready_at;
}

void Ftl::OpenNextBlock() {
  const uint64_t ready = NextBlockReadyAt();
  if (ready > sim_->now()) {
    // Only single-page allocations get here (AllocRun returns kFtlBusy
    // instead, and a commit waits for CommitReadyAt first). A GC migration,
    // or a writeback from a lookup or an unmap, cannot be retried, so it
    // waits out the erase under the caller's lock.
    Simulator::Sleep(ready - sim_->now());
  }
  open_block_ = free_blocks_.front();
  free_blocks_.pop_front();
  blocks_[open_block_].free = false;
  block_open_ = true;
  write_ptr_ = 0;
}

void Ftl::ScheduleErase(uint32_t block) {
  const uint64_t start = std::max(sim_->now(), erase_busy_until_);
  erase_busy_until_ = start + env_->EraseLatencyNs();
  Block& blk = blocks_[block];
  blk.erased = true;
  blk.ready_at = erase_busy_until_;
  erases_++;
}

uint64_t Ftl::AllocSinglePage() {
  if (!block_open_ || write_ptr_ == config_.pages_per_block) {
    OpenNextBlock();
  }
  const uint64_t ppn =
      static_cast<uint64_t>(open_block_) * config_.pages_per_block + write_ptr_;
  write_ptr_++;
  return ppn;
}

uint64_t Ftl::AllocRun(uint32_t n, uint64_t* ready_at) {
  CCNVME_CHECK(n > 0 && n <= config_.pages_per_block)
      << "value run of " << n << " pages exceeds one erase block";
  *ready_at = 0;
  switch (MaybeGc()) {
    case GcResult::kPinned:
      return kFtlBusy;  // every candidate victim is pinned
    case GcResult::kFull:
      return kFtlUnmapped;
    case GcResult::kOk:
      break;
  }
  // While the next block erases, a run may take neither that block nor the
  // open block's last CommitWritebacks() pages, so the commit that follows
  // the run rarely has to wait for room (see CommitReadyAt).
  if ((!block_open_ || write_ptr_ + n + CommitWritebacks() > config_.pages_per_block) &&
      !free_blocks_.empty()) {
    const uint64_t ready = NextBlockReadyAt();
    if (ready > sim_->now()) {
      *ready_at = ready;
      return kFtlBusy;
    }
  }
  if (!block_open_ || write_ptr_ + n > config_.pages_per_block) {
    // The run does not fit: close the block, wasting the tail pages (they
    // were never programmed; count them invalid so GC can reclaim them).
    if (block_open_) {
      for (uint32_t i = write_ptr_; i < config_.pages_per_block; ++i) {
        const uint64_t ppn =
            static_cast<uint64_t>(open_block_) * config_.pages_per_block + i;
        pages_[ppn].state = PageState::kInvalid;
      }
    }
    if (free_blocks_.empty()) {
      return kFtlUnmapped;  // device full even after GC
    }
    OpenNextBlock();
  }
  const uint64_t ppn =
      static_cast<uint64_t>(open_block_) * config_.pages_per_block + write_ptr_;
  write_ptr_ += n;
  return ppn;
}

void Ftl::DiscardRun(uint64_t ppn, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    MarkInvalid(ppn + i);
  }
  gc_futile_ = false;
}

uint64_t Ftl::CommitReadyAt() {
  if ((block_open_ && write_ptr_ + CommitWritebacks() <= config_.pages_per_block) ||
      free_blocks_.empty()) {
    return 0;
  }
  return NextBlockReadyAt();
}

bool Ftl::Unpin(uint64_t ppn) {
  Block& blk = blocks_[ppn / config_.pages_per_block];
  CCNVME_CHECK(blk.pins > 0) << "unpin of unpinned ppn " << ppn;
  return --blk.pins == 0;
}

// --- map cache -------------------------------------------------------------

Ftl::Frame& Ftl::GetFrame(uint32_t seg, bool count_stats) {
  CCNVME_CHECK(seg < num_segments_);
  auto it = frames_.find(seg);
  if (it != frames_.end()) {
    if (count_stats) {
      map_hits_++;
    }
    lru_.remove(seg);
    lru_.push_front(seg);
    return it->second;
  }
  // Miss: evict the LRU frame if the cache is full. In attach mode the
  // cache grows unbounded instead (FinishAttach trims it) — an eviction
  // writeback would allocate flash pages before liveness is rebuilt.
  if (!attach_mode_ && frames_.size() >= config_.map_cache_segments) {
    const uint32_t victim = lru_.back();
    lru_.pop_back();
    auto vit = frames_.find(victim);
    CCNVME_CHECK(vit != frames_.end());
    if (vit->second.dirty) {
      WritebackSegment(victim, vit->second);
    }
    frames_.erase(vit);
  }
  Frame& frame = frames_[seg];
  frame.entries.assign(config_.map_entries_per_segment, kFtlUnmapped);
  if (gtd_[seg] != kFtlUnmapped) {
    // Demand-load the segment's flash copy; the media read is charged to
    // the foreground command and surfaced as wait.ftl_map_miss blame.
    Tracer* tracer = sim_->tracer();
    const uint64_t t0 = sim_->now();
    Buffer raw;
    {
      ScopedSpan span(tracer, TracePoint::kFtlMapLoad, seg);
      env_->FlashRead(gtd_[seg], &raw);
    }
    if (tracer != nullptr) {
      tracer->WaitEdgeEvent(WaitEdge::kFtlMapMiss, t0, sim_->now(), seg);
    }
    CCNVME_CHECK(raw.size() == kPageBytes);
    for (uint32_t i = 0; i < config_.map_entries_per_segment; ++i) {
      frame.entries[i] = GetU64(raw, i * 8);
    }
    map_loads_++;
  }
  lru_.push_front(seg);
  return frame;
}

void Ftl::WritebackSegment(uint32_t seg, Frame& frame) {
  ScopedSpan span(sim_->tracer(), TracePoint::kFtlMapWriteback, seg);
  const uint64_t ppn = AllocSinglePage();
  Buffer raw(kPageBytes);
  for (uint32_t i = 0; i < config_.map_entries_per_segment; ++i) {
    PutU64(raw, i * 8, frame.entries[i]);
  }
  env_->FlashWrite(ppn, raw);
  media_pages_written_++;
  const uint64_t old = gtd_[seg];
  gtd_[seg] = ppn;
  env_->PersistGtd(seg, ppn);
  if (old != kFtlUnmapped) {
    MarkInvalid(old);
  }
  MarkValid(ppn, kFtlMapLpnBase + seg);
  frame.dirty = false;
  map_writebacks_++;
}

void Ftl::MapInstall(uint64_t lpn, uint64_t ppn) {
  CCNVME_CHECK(lpn < config_.total_lpns);
  const uint32_t seg = static_cast<uint32_t>(lpn / config_.map_entries_per_segment);
  Frame& frame = GetFrame(seg, /*count_stats=*/true);
  uint64_t& entry = frame.entries[lpn % config_.map_entries_per_segment];
  if (entry != kFtlUnmapped) {
    MarkInvalid(entry);
    gc_futile_ = false;
  }
  entry = ppn;
  frame.dirty = true;
  MarkValid(ppn, lpn);
  media_pages_written_++;  // the data page program itself
}

uint64_t Ftl::MapLookup(uint64_t lpn) {
  CCNVME_CHECK(lpn < config_.total_lpns);
  const uint32_t seg = static_cast<uint32_t>(lpn / config_.map_entries_per_segment);
  Frame& frame = GetFrame(seg, /*count_stats=*/true);
  return frame.entries[lpn % config_.map_entries_per_segment];
}

void Ftl::MapErase(uint64_t lpn) {
  CCNVME_CHECK(lpn < config_.total_lpns);
  const uint32_t seg = static_cast<uint32_t>(lpn / config_.map_entries_per_segment);
  Frame& frame = GetFrame(seg, /*count_stats=*/true);
  uint64_t& entry = frame.entries[lpn % config_.map_entries_per_segment];
  if (entry == kFtlUnmapped) {
    return;
  }
  MarkInvalid(entry);
  gc_futile_ = false;
  entry = kFtlUnmapped;
  frame.dirty = true;
}

void Ftl::CheckpointMap() {
  // std::map iteration order = segment order: deterministic writeback.
  for (auto& [seg, frame] : frames_) {
    if (frame.dirty) {
      WritebackSegment(seg, frame);
    }
  }
  env_->OnMapCheckpointed();
}

// --- garbage collection ----------------------------------------------------

uint64_t Ftl::FreePages() const {
  const uint64_t tail = block_open_ ? config_.pages_per_block - write_ptr_ : 0;
  return static_cast<uint64_t>(free_blocks_.size()) * config_.pages_per_block + tail;
}

Ftl::GcResult Ftl::MaybeGc() {
  uint32_t passes = 0;
  uint64_t before_previous = 0;  // free pages before the previous pass
  while (free_blocks_.size() <= config_.gc_free_blocks_low) {
    if (gc_futile_) {
      return GcResult::kFull;
    }
    // Greedy victim: most invalid pages, lowest block id on ties. Only
    // closed, unpinned blocks qualify (the open block is the migration
    // destination; a pinned block has an unlocked I/O in flight).
    uint32_t victim = num_blocks_;
    uint32_t best_invalid = 0;
    bool pinned_candidate = false;
    for (uint32_t b = 0; b < num_blocks_; ++b) {
      if (blocks_[b].free || (block_open_ && b == open_block_)) {
        continue;
      }
      uint32_t invalid = 0;
      for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
        const Page& p = pages_[static_cast<uint64_t>(b) * config_.pages_per_block + i];
        if (p.state == PageState::kInvalid) {
          invalid++;
        }
      }
      if (invalid > 0 && blocks_[b].pins > 0) {
        pinned_candidate = true;
        continue;
      }
      if (invalid > best_invalid) {
        best_invalid = invalid;
        victim = b;
      }
    }
    if (victim == num_blocks_) {
      // Nothing reclaimable (AllocRun reports full if it matters), or only
      // pinned blocks are, in which case the caller waits for a pin to drop.
      return pinned_candidate ? GcResult::kPinned : GcResult::kOk;
    }
    // A pass can cost as many pages as it frees: its migrations, plus the
    // map writebacks they cause. The next pass usually gains again, but two
    // that together gain nothing would repeat forever: report the device
    // full.
    const uint64_t before = FreePages();
    GcOnce(victim);
    if (passes++ > 0 && FreePages() <= before_previous) {
      gc_futile_ = true;
      return GcResult::kFull;
    }
    before_previous = before;
  }
  return GcResult::kOk;
}

void Ftl::GcOnce(uint32_t victim) {
  Tracer* tracer = sim_->tracer();
  const uint64_t t0 = sim_->now();
  {
    ScopedSpan span(tracer, TracePoint::kFtlGc, victim);
    // 1. Migrate live pages (data and map segments alike) out-of-place.
    for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
      const uint64_t src =
          static_cast<uint64_t>(victim) * config_.pages_per_block + i;
      if (pages_[src].state != PageState::kValid) {
        continue;
      }
      const uint64_t lpn = pages_[src].lpn;
      Buffer data;
      env_->FlashRead(src, &data);
      const uint64_t dst = AllocSinglePage();
      env_->FlashWrite(dst, data);
      media_pages_written_++;
      if (lpn >= kFtlMapLpnBase) {
        // A map-segment page: move the GTD root. If the segment is also
        // resident its RAM copy stays authoritative; the flash copy we
        // just moved is its last checkpoint.
        const uint32_t seg = static_cast<uint32_t>(lpn - kFtlMapLpnBase);
        MarkInvalid(src);
        gtd_[seg] = dst;
        env_->PersistGtd(seg, dst);
        MarkValid(dst, lpn);
      } else {
        MarkInvalid(src);
        const uint32_t seg =
            static_cast<uint32_t>(lpn / config_.map_entries_per_segment);
        Frame& frame = GetFrame(seg, /*count_stats=*/false);
        frame.entries[lpn % config_.map_entries_per_segment] = dst;
        frame.dirty = true;
        MarkValid(dst, lpn);
      }
      gc_migrated_pages_++;
    }
    // 2. Checkpoint the map so nothing durable references the victim.
    CheckpointMap();
    // 3. Hand the victim to the erase engine: it joins the free pool now,
    // so the pool count above already sees it, and becomes allocatable
    // when its erase completes. (The model never clears media bytes —
    // stale data stays readable until the block is re-programmed, which
    // matches flash and keeps every pre-erase crash state recoverable.)
    for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
      Page& p = pages_[static_cast<uint64_t>(victim) * config_.pages_per_block + i];
      p.state = PageState::kFree;
      p.lpn = kFtlUnmapped;
    }
    Block& blk = blocks_[victim];
    CCNVME_CHECK(blk.valid == 0 && blk.pins == 0);
    blk.free = true;
    ScheduleErase(victim);
    free_blocks_.push_back(victim);
    gc_runs_++;
  }
  if (tracer != nullptr) {
    tracer->WaitEdgeEvent(WaitEdge::kFtlGc, t0, sim_->now(), victim);
  }
}

// --- attach-time recovery --------------------------------------------------

void Ftl::AttachLoadGtd() {
  for (uint32_t seg = 0; seg < num_segments_; ++seg) {
    const uint64_t ppn = env_->LoadGtd(seg);
    gtd_[seg] = ppn;
    if (ppn != kFtlUnmapped && ppn < config_.flash_pages &&
        pages_[ppn].state == PageState::kFree) {
      MarkValid(ppn, kFtlMapLpnBase + seg);
    }
  }
}

void Ftl::MapSetForReplay(uint64_t lpn, uint64_t ppn) {
  if (lpn >= config_.total_lpns) {
    return;  // corrupt shadow; the directory walk will flag the entry
  }
  const uint32_t seg = static_cast<uint32_t>(lpn / config_.map_entries_per_segment);
  Frame& frame = GetFrame(seg, /*count_stats=*/false);
  frame.entries[lpn % config_.map_entries_per_segment] = ppn;
  frame.dirty = true;
}

void Ftl::MapClearUnclaimed(uint64_t lpn) {
  CCNVME_CHECK(attach_mode_) << "orphan sweep is an attach-time operation";
  if (lpn >= config_.total_lpns) {
    return;
  }
  const uint32_t seg = static_cast<uint32_t>(lpn / config_.map_entries_per_segment);
  Frame& frame = GetFrame(seg, /*count_stats=*/false);
  uint64_t& entry = frame.entries[lpn % config_.map_entries_per_segment];
  if (entry != kFtlUnmapped) {
    entry = kFtlUnmapped;
    frame.dirty = true;
  }
}

bool Ftl::MarkLive(uint64_t lpn, uint64_t ppn) {
  if (ppn >= config_.flash_pages || pages_[ppn].state == PageState::kValid) {
    return false;
  }
  MarkValid(ppn, lpn);
  free_lpns_.erase(lpn);
  return true;
}

void Ftl::FinishAttach() {
  free_blocks_.clear();
  for (uint32_t b = 0; b < num_blocks_; ++b) {
    Block& blk = blocks_[b];
    if (blk.valid == 0) {
      // Nothing live: back to the free pool. We cannot tell from a crash
      // image whether the block still holds stale data, so conservatively
      // charge the erase on first open.
      for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
        Page& p = pages_[static_cast<uint64_t>(b) * config_.pages_per_block + i];
        p.state = PageState::kFree;
        p.lpn = kFtlUnmapped;
      }
      blk.free = true;
      blk.erased = false;
    } else {
      // Live pages present: closed block; every non-valid page is stale.
      for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
        Page& p = pages_[static_cast<uint64_t>(b) * config_.pages_per_block + i];
        if (p.state != PageState::kValid) {
          p.state = PageState::kInvalid;
          p.lpn = kFtlUnmapped;
        }
      }
      blk.free = false;
      blk.erased = false;
    }
  }
  for (uint32_t b = 0; b < num_blocks_; ++b) {
    if (blocks_[b].free) {
      free_blocks_.push_back(b);
    }
  }
  block_open_ = false;
  write_ptr_ = config_.pages_per_block;
  // Leave attach mode and trim the segment cache back to capacity; dirty
  // victims write back now that allocation is safe.
  attach_mode_ = false;
  while (frames_.size() > config_.map_cache_segments) {
    const uint32_t victim = lru_.back();
    lru_.pop_back();
    auto it = frames_.find(victim);
    CCNVME_CHECK(it != frames_.end());
    if (it->second.dirty) {
      WritebackSegment(victim, it->second);
    }
    frames_.erase(it);
  }
}

}  // namespace ccnvme
