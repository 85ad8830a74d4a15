#include "src/nvm/nvm_device.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace ccnvme {

namespace {

uint64_t Lines(size_t bytes) { return (bytes + kNvmLineSize - 1) / kNvmLineSize; }

}  // namespace

NvmDevice::NvmDevice(Simulator* sim, const NvmConfig& config)
    : sim_(sim),
      config_(config),
      image_(static_cast<uint8_t*>(std::calloc(config.size_bytes, 1))),
      size_(config.size_bytes) {
  CCNVME_CHECK(image_ != nullptr) << "cannot allocate the NVM image";
}

NvmDevice::NvmDevice(Simulator* sim, const NvmConfig& config, const Buffer& image)
    : sim_(sim),
      config_(config),
      image_(static_cast<uint8_t*>(std::malloc(image.size()))),
      size_(image.size()) {
  CCNVME_CHECK_EQ(image.size(), config.size_bytes)
      << "NVM image size does not match the configured device size";
  CCNVME_CHECK(image_ != nullptr) << "cannot allocate the NVM image";
  std::memcpy(image_.get(), image.data(), size_);
}

void NvmDevice::Store(size_t offset, std::span<const uint8_t> data) {
  CCNVME_CHECK_LE(offset + data.size(), size_);
  // Chunked so every recorded event's payload fits one 64-bit torn-word
  // mask; the chunks of one Store are independent stores to the crash model
  // (cache lines evict independently anyway).
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t len = std::min(kNvmStoreChunk, data.size() - pos);
    uint8_t* dst = image_.get() + offset + pos;
    overwritten_.insert(overwritten_.end(), dst, dst + len);
    std::memcpy(dst, data.data() + pos, len);
    pending_.push_back(Range{offset + pos, len});
    if (recorder_) {
      BioEvent ev;
      ev.op = BioOp::kNvmWrite;
      ev.lba = offset + pos;  // byte offset, like PMR events
      ev.data.assign(data.begin() + static_cast<long>(pos),
                     data.begin() + static_cast<long>(pos + len));
      recorder_(ev);
    }
    stores_++;
    pos += len;
  }
  Simulator::Sleep(Lines(data.size()) * config_.store_line_ns);
}

void NvmDevice::StoreU64(size_t offset, uint64_t v) {
  CCNVME_CHECK_EQ(offset % kNvmWordSize, 0u) << "U64 stores must be word-aligned";
  uint8_t buf[8];
  PutU64(buf, 0, v);
  Store(offset, buf);
}

void NvmDevice::Load(size_t offset, std::span<uint8_t> out) {
  CCNVME_CHECK_LE(offset + out.size(), size_);
  std::memcpy(out.data(), image_.get() + offset, out.size());
  ChargeLoad(out.size());
}

void NvmDevice::ChargeLoad(size_t len) {
  CCNVME_CHECK_LE(len, size_);
  Simulator::Sleep(Lines(len) * config_.load_line_ns);
}

uint64_t NvmDevice::LoadU64(size_t offset) {
  uint8_t buf[8];
  Load(offset, buf);
  return GetU64(buf, 0);
}

size_t NvmDevice::FlushFence() {
  const size_t flushed = pending_.size();
  pending_.clear();
  overwritten_.clear();
  if (recorder_) {
    BioEvent ev;
    ev.op = BioOp::kNvmFence;
    recorder_(ev);
  }
  fences_++;
  Simulator::Sleep(config_.fence_ns);
  return flushed;
}

Buffer NvmDevice::durable_image() const {
  Buffer durable(image_.get(), image_.get() + size_);
  // Newest first, so a byte stored twice since the fence ends up with what
  // it held at the fence.
  size_t end = overwritten_.size();
  for (auto r = pending_.rbegin(); r != pending_.rend(); ++r) {
    end -= r->len;
    std::memcpy(durable.data() + r->offset, overwritten_.data() + end, r->len);
  }
  return durable;
}

void NvmApplyTornWords(Buffer& image, size_t offset, std::span<const uint8_t> data,
                       uint64_t word_mask) {
  CCNVME_CHECK_LE(offset + data.size(), image.size());
  const size_t words = (data.size() + kNvmWordSize - 1) / kNvmWordSize;
  CCNVME_CHECK_LE(words, 64u);
  for (size_t w = 0; w < words; ++w) {
    if (((word_mask >> w) & 1) == 0) {
      continue;
    }
    const size_t begin = w * kNvmWordSize;
    const size_t end = std::min(begin + kNvmWordSize, data.size());
    std::memcpy(image.data() + offset + begin, data.data() + begin, end - begin);
  }
}

}  // namespace ccnvme
