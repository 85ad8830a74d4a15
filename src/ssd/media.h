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
//
// The byte-addressable persistent stores — the controller's PMR and the NVM
// tier — are PageImages: sparse tables of the same copy-on-write blocks,
// shared the same way.
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
  // A new block of |size| zero bytes.
  explicit MediaBlock(size_t size);

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

// A byte image of fixed size held as a sparse table of kPageSize-byte
// MediaBlocks: a page never written is absent and reads as zeros. Copying
// an image copies page handles, not bytes; a write copies a shared page
// first, so every copy keeps the bytes it had. Every page block is
// kPageSize bytes, also the last one of an image whose size is not a
// multiple of it; bytes past size() are never read or written.
class PageImage {
 public:
  static constexpr size_t kPageSize = 4096;

  PageImage() = default;
  // |size| zero bytes, holding no page.
  explicit PageImage(size_t size);
  // A copy of |bytes| holding only its pages that are not all zero.
  explicit PageImage(std::span<const uint8_t> bytes);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t page_count() const { return pages_.size(); }
  // Pages held (written at least once); the others read as zeros.
  size_t pages_held() const;

  void Write(size_t offset, std::span<const uint8_t> data);
  void Read(size_t offset, std::span<uint8_t> out) const;
  uint64_t ReadU64(size_t offset) const;

  // Page |index|, or an empty handle when it is absent.
  const MediaBlock& page(size_t index) const { return pages_[index]; }
  // True when page |index| is one block in both images, or absent from both.
  bool SamePage(const PageImage& other, size_t index) const;
  // Makes page |index| share |other|'s (an image of the same size).
  void SharePage(const PageImage& other, size_t index);

 private:
  size_t size_ = 0;
  std::vector<MediaBlock> pages_;
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
