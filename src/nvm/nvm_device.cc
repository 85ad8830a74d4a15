#include "src/nvm/nvm_device.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace ccnvme {

namespace {

uint64_t Lines(size_t bytes) { return (bytes + kNvmLineSize - 1) / kNvmLineSize; }

}  // namespace

NvmDevice::NvmDevice(Simulator* sim, const NvmConfig& config)
    : sim_(sim), config_(config), live_(config.size_bytes), durable_(config.size_bytes) {}

NvmDevice::NvmDevice(Simulator* sim, const NvmConfig& config, const PageImage& image)
    : sim_(sim), config_(config), live_(image), durable_(image) {
  CCNVME_CHECK_EQ(image.size(), config.size_bytes)
      << "NVM image size does not match the configured device size";
}

void NvmDevice::Store(size_t offset, std::span<const uint8_t> data) {
  CCNVME_CHECK_LE(offset + data.size(), size());
  // Chunked so every recorded event's payload fits one 64-bit torn-word
  // mask; the chunks of one Store are independent stores to the crash model
  // (cache lines evict independently anyway).
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t len = std::min(kNvmStoreChunk, data.size() - pos);
    const size_t first_page = (offset + pos) / PageImage::kPageSize;
    const size_t last_page = (offset + pos + len - 1) / PageImage::kPageSize;
    for (size_t p = first_page; p <= last_page; ++p) {
      if (live_.SamePage(durable_, p)) {
        dirty_pages_.push_back(p);  // first store to the page since the fence
      }
    }
    live_.Write(offset + pos, data.subspan(pos, len));
    pending_stores_++;
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
  live_.Read(offset, out);
  ChargeLoad(out.size());
}

void NvmDevice::ChargeLoad(size_t len) {
  CCNVME_CHECK_LE(len, size());
  Simulator::Sleep(Lines(len) * config_.load_line_ns);
}

uint64_t NvmDevice::LoadU64(size_t offset) {
  uint8_t buf[8];
  Load(offset, buf);
  return GetU64(buf, 0);
}

size_t NvmDevice::FlushFence() {
  for (size_t p : dirty_pages_) {
    durable_.SharePage(live_, p);
  }
  dirty_pages_.clear();
  const size_t flushed = std::exchange(pending_stores_, 0);
  if (recorder_) {
    BioEvent ev;
    ev.op = BioOp::kNvmFence;
    recorder_(ev);
  }
  fences_++;
  Simulator::Sleep(config_.fence_ns);
  return flushed;
}

void NvmApplyTornWords(PageImage& image, size_t offset, std::span<const uint8_t> data,
                       uint64_t word_mask) {
  CCNVME_CHECK_LE(offset + data.size(), image.size());
  const size_t words = (data.size() + kNvmWordSize - 1) / kNvmWordSize;
  CCNVME_CHECK_LE(words, 64u);
  // One write per run of surviving words.
  size_t w = 0;
  while (w < words) {
    if (((word_mask >> w) & 1) == 0) {
      ++w;
      continue;
    }
    size_t end_word = w + 1;
    while (end_word < words && ((word_mask >> end_word) & 1) != 0) {
      ++end_word;
    }
    const size_t begin = w * kNvmWordSize;
    const size_t end = std::min(end_word * kNvmWordSize, data.size());
    image.Write(offset + begin, data.subspan(begin, end - begin));
    w = end_word;
  }
}

}  // namespace ccnvme
