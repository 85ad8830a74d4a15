// Persistent media store with volatile write-cache semantics.
//
// The store keeps one copy of each block. Its *durable* view — what survives
// a power cut — is a map of reference-counted, copy-on-write blocks
// (MediaBlock). A volatile-cache drive's completed non-FUA writes sit in a
// sparse overlay of pending blocks on top of it: reads see the overlay
// first, Flush moves it into the durable view, and PowerCut keeps an
// arbitrary survivor subset of it, modeling the undefined destage order of
// a volatile cache — exactly the reordering space a CrashMonkey-style tester
// must explore. On a power-loss-protected drive every write is durable and
// the overlay stays empty.
//
// Snapshots of the durable view (crash images, booted stacks, explored
// crash states) share blocks with the store instead of copying them; a
// write to a shared block replaces the store's reference with a fresh
// block, so every snapshot keeps the bytes it captured.
#ifndef SRC_SSD_MEDIA_H_
#define SRC_SSD_MEDIA_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"

namespace ccnvme {

// Handle to one media block's bytes. Copying a handle shares the bytes;
// they change only through a handle that is their sole owner, so a block
// once shared is immutable to everyone holding it. The reference count is
// atomic: the parallel crash explorer's workers share a recording's base
// image. An empty handle holds no block.
class MediaBlock {
 public:
  MediaBlock() = default;
  // A new block holding a copy of |bytes|.
  explicit MediaBlock(std::span<const uint8_t> bytes);

  MediaBlock(const MediaBlock& other) noexcept;
  MediaBlock(MediaBlock&& other) noexcept;
  MediaBlock& operator=(MediaBlock other) noexcept;
  ~MediaBlock();

  explicit operator bool() const { return rep_ != nullptr; }
  const uint8_t* data() const;
  size_t size() const;
  operator std::span<const uint8_t>() const { return {data(), size()}; }

  // Makes this handle's block hold |bytes|: in place when this handle is the
  // block's only owner, in a fresh block otherwise.
  void Assign(std::span<const uint8_t> bytes);
  // Writable bytes of this handle's block, copied into a fresh block first
  // unless this handle is its only owner. The handle must not be empty.
  std::span<uint8_t> Mutable();

  bool SharesBytesWith(const MediaBlock& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }
  friend bool operator==(const MediaBlock& a, const MediaBlock& b);

 private:
  struct Rep;
  bool Unique() const;

  Rep* rep_ = nullptr;
};

class MediaStore {
 public:
  MediaStore(uint64_t capacity_bytes, uint32_t block_size = 4096);

  uint64_t capacity() const { return capacity_; }
  uint32_t block_size() const { return block_size_; }

  // Durable write: replaces the blocks in the durable view and drops any
  // pending cached copy of them, so an older cached write can never be
  // destaged over it. Offset and size must be block-aligned.
  void WriteDurable(uint64_t offset, std::span<const uint8_t> data);

  // Cached write: visible to reads immediately, durable only after Flush (or
  // if selected as a power-cut survivor). Returns the pending sequence id.
  uint64_t WriteCached(uint64_t offset, std::span<const uint8_t> data);

  // Reads the newest data (pending cached blocks first).
  void Read(uint64_t offset, std::span<uint8_t> out) const;
  // Reads the durable view (what a post-crash mount would see).
  void ReadDurable(uint64_t offset, std::span<uint8_t> out) const;

  // Promotes all pending cached writes to the durable view.
  void Flush();

  // Power loss: applies pending writes whose seq is in |survivors| (in seq
  // order) to the durable view and drops the rest.
  void PowerCut(const std::set<uint64_t>& survivors);
  void PowerCutLoseAll() { PowerCut({}); }

  bool has_pending() const { return !pending_.empty(); }

  using BlockMap = std::map<uint64_t, MediaBlock>;  // block index -> block

  // Crash/remount support: capture the durable view, or install one (a new
  // "device" booting from the bytes that survived a power cut). Both share
  // blocks with their source.
  BlockMap SnapshotDurable() const { return durable_; }
  void LoadDurable(BlockMap blocks);

 private:
  // One cached write awaiting destage. A block's handle is emptied when a
  // later durable write supersedes it.
  struct PendingWrite {
    uint64_t seq;
    uint64_t first_block;
    std::vector<MediaBlock> blocks;
  };

  void CheckRange(uint64_t offset, size_t size) const;
  void DropPending(uint64_t block);

  uint64_t capacity_;
  uint32_t block_size_;
  BlockMap durable_;
  // Pending cached writes, oldest first, and the newest pending copy of each
  // block they cover (what reads see ahead of durable_).
  std::vector<PendingWrite> pending_;
  std::unordered_map<uint64_t, MediaBlock> overlay_;
  uint64_t next_seq_ = 1;
};

}  // namespace ccnvme

#endif  // SRC_SSD_MEDIA_H_
