#include "src/ssd/media.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <utility>

#include "src/common/logging.h"

namespace ccnvme {

// One allocation per block: the count, the size and the bytes that follow.
// An intrusive count (rather than std::shared_ptr) lets Unique() load it
// with acquire ordering, so a handle that finds itself the only owner also
// sees every other thread's reads of the block finished before it writes.
struct MediaBlock::Rep {
  std::atomic<uint32_t> refs;
  uint32_t size;

  uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }

  static Rep* New(size_t size) {
    void* mem = ::operator new(sizeof(Rep) + size);
    return new (mem) Rep{{1}, static_cast<uint32_t>(size)};
  }
};

MediaBlock::MediaBlock(std::span<const uint8_t> bytes) : rep_(Rep::New(bytes.size())) {
  std::memcpy(rep_->bytes(), bytes.data(), bytes.size());
}

MediaBlock::MediaBlock(size_t size) : rep_(Rep::New(size)) {
  std::memset(rep_->bytes(), 0, size);
}

MediaBlock::MediaBlock(const MediaBlock& other) noexcept : rep_(other.rep_) {
  if (rep_ != nullptr) {
    rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

MediaBlock::MediaBlock(MediaBlock&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}

MediaBlock& MediaBlock::operator=(MediaBlock other) noexcept {
  std::swap(rep_, other.rep_);
  return *this;
}

MediaBlock::~MediaBlock() {
  if (rep_ != nullptr && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ::operator delete(rep_);
  }
}

const uint8_t* MediaBlock::data() const { return rep_ == nullptr ? nullptr : rep_->bytes(); }

size_t MediaBlock::size() const { return rep_ == nullptr ? 0 : rep_->size; }

bool MediaBlock::Unique() const { return rep_->refs.load(std::memory_order_acquire) == 1; }

void MediaBlock::Assign(std::span<const uint8_t> bytes) {
  if (rep_ != nullptr && rep_->size == bytes.size() && Unique()) {
    std::memcpy(rep_->bytes(), bytes.data(), bytes.size());
  } else {
    *this = MediaBlock(bytes);
  }
}

std::span<uint8_t> MediaBlock::Mutable() {
  CCNVME_CHECK(rep_ != nullptr) << "writing through an empty media block handle";
  if (!Unique()) {
    *this = MediaBlock(std::span<const uint8_t>(*this));
  }
  return {rep_->bytes(), rep_->size};
}

bool operator==(const MediaBlock& a, const MediaBlock& b) {
  if (a.rep_ == b.rep_) {
    return true;
  }
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

PageImage::PageImage(size_t size)
    : size_(size), pages_((size + kPageSize - 1) / kPageSize) {}

PageImage::PageImage(std::span<const uint8_t> bytes) : PageImage(bytes.size()) {
  for (size_t off = 0; off < size_; off += kPageSize) {
    const std::span<const uint8_t> page = bytes.subspan(off, std::min(kPageSize, size_ - off));
    if (std::any_of(page.begin(), page.end(), [](uint8_t b) { return b != 0; })) {
      Write(off, page);
    }
  }
}

size_t PageImage::pages_held() const {
  return static_cast<size_t>(
      std::count_if(pages_.begin(), pages_.end(), [](const MediaBlock& p) { return bool(p); }));
}

void PageImage::Write(size_t offset, std::span<const uint8_t> data) {
  CCNVME_CHECK_LE(offset, size_) << "page image write out of range";
  CCNVME_CHECK_LE(data.size(), size_ - offset) << "page image write out of range";
  for (size_t pos = 0; pos < data.size();) {
    const size_t at = offset + pos;
    const size_t in_page = at % kPageSize;
    const size_t len = std::min(kPageSize - in_page, data.size() - pos);
    MediaBlock& page = pages_[at / kPageSize];
    if (len == kPageSize) {
      page.Assign(data.subspan(pos, len));
    } else {
      if (!page) {
        page = MediaBlock(kPageSize);
      }
      std::memcpy(page.Mutable().data() + in_page, data.data() + pos, len);
    }
    pos += len;
  }
}

void PageImage::Read(size_t offset, std::span<uint8_t> out) const {
  CCNVME_CHECK_LE(offset, size_) << "page image read out of range";
  CCNVME_CHECK_LE(out.size(), size_ - offset) << "page image read out of range";
  for (size_t pos = 0; pos < out.size();) {
    const size_t at = offset + pos;
    const size_t in_page = at % kPageSize;
    const size_t len = std::min(kPageSize - in_page, out.size() - pos);
    const MediaBlock& page = pages_[at / kPageSize];
    if (page) {
      std::memcpy(out.data() + pos, page.data() + in_page, len);
    } else {
      std::memset(out.data() + pos, 0, len);
    }
    pos += len;
  }
}

uint64_t PageImage::ReadU64(size_t offset) const {
  uint8_t b[8];
  Read(offset, b);
  return GetU64(b, 0);
}

bool PageImage::SamePage(const PageImage& other, size_t index) const {
  const MediaBlock& a = pages_[index];
  const MediaBlock& b = other.pages_[index];
  return a.SharesBytesWith(b) || (!a && !b);
}

void PageImage::SharePage(const PageImage& other, size_t index) {
  CCNVME_CHECK_EQ(size_, other.size_);
  pages_[index] = other.pages_[index];
}

MediaStore::MediaStore(uint64_t capacity_bytes, uint32_t block_size)
    : capacity_(capacity_bytes), block_size_(block_size) {
  CCNVME_CHECK_GT(block_size_, 0u);
  CCNVME_CHECK_EQ(capacity_ % block_size_, 0u);
}

void MediaStore::CheckRange(uint64_t offset, size_t size) const {
  CCNVME_CHECK_EQ(offset % block_size_, 0u) << "unaligned media offset";
  CCNVME_CHECK_EQ(size % block_size_, 0u) << "unaligned media size";
  CCNVME_CHECK_LE(offset + size, capacity_) << "media access out of range";
}

void MediaStore::DropPending(uint64_t block) {
  if (overlay_.erase(block) == 0) {
    return;  // no pending copy (the newest one is always in the overlay)
  }
  for (PendingWrite& pw : pending_) {
    if (block >= pw.first_block && block - pw.first_block < pw.blocks.size()) {
      pw.blocks[block - pw.first_block] = MediaBlock();
    }
  }
}

void MediaStore::WriteDurable(uint64_t offset, std::span<const uint8_t> data) {
  CheckRange(offset, data.size());
  const uint64_t first_block = offset / block_size_;
  for (uint64_t i = 0; i < data.size() / block_size_; ++i) {
    durable_[first_block + i].Assign(data.subspan(i * block_size_, block_size_));
    if (!overlay_.empty()) {
      DropPending(first_block + i);
    }
  }
}

uint64_t MediaStore::WriteCached(uint64_t offset, std::span<const uint8_t> data) {
  CheckRange(offset, data.size());
  PendingWrite pw{next_seq_++, offset / block_size_, {}};
  for (uint64_t i = 0; i < data.size() / block_size_; ++i) {
    MediaBlock blk(data.subspan(i * block_size_, block_size_));
    overlay_[pw.first_block + i] = blk;
    pw.blocks.push_back(std::move(blk));
  }
  pending_.push_back(std::move(pw));
  return pending_.back().seq;
}

void MediaStore::Read(uint64_t offset, std::span<uint8_t> out) const {
  CheckRange(offset, out.size());
  if (overlay_.empty()) {
    ReadDurable(offset, out);
    return;
  }
  const uint64_t first_block = offset / block_size_;
  for (uint64_t i = 0; i < out.size() / block_size_; ++i) {
    auto it = overlay_.find(first_block + i);
    if (it == overlay_.end()) {
      ReadDurable((first_block + i) * block_size_, out.subspan(i * block_size_, block_size_));
    } else {
      std::memcpy(out.data() + i * block_size_, it->second.data(), block_size_);
    }
  }
}

void MediaStore::ReadDurable(uint64_t offset, std::span<uint8_t> out) const {
  CheckRange(offset, out.size());
  const uint64_t first_block = offset / block_size_;
  for (uint64_t i = 0; i < out.size() / block_size_; ++i) {
    auto it = durable_.find(first_block + i);
    uint8_t* dst = out.data() + i * block_size_;
    if (it == durable_.end()) {
      std::memset(dst, 0, block_size_);
    } else {
      std::memcpy(dst, it->second.data(), block_size_);
    }
  }
}

void MediaStore::Flush() {
  // The overlay holds the newest unsuperseded pending copy of each block,
  // which is what destaging every pending write in order would leave.
  for (auto& [block, blk] : overlay_) {
    durable_[block] = std::move(blk);
  }
  overlay_.clear();
  pending_.clear();
}

void MediaStore::PowerCut(const std::set<uint64_t>& survivors) {
  for (const PendingWrite& pw : pending_) {
    if (survivors.count(pw.seq) == 0) {
      continue;
    }
    for (size_t i = 0; i < pw.blocks.size(); ++i) {
      if (pw.blocks[i]) {
        durable_[pw.first_block + i] = pw.blocks[i];
      }
    }
  }
  overlay_.clear();
  pending_.clear();
}

void MediaStore::LoadDurable(BlockMap blocks) {
  durable_ = std::move(blocks);
  overlay_.clear();
  pending_.clear();
}

}  // namespace ccnvme
