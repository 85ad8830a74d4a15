// Persistent Memory Region (PMR, NVMe 1.4 §?).
//
// A byte-addressable region of capacitor-backed DRAM exposed on the SSD's
// BAR. CPU loads/stores reach it over PCIe (timing modeled by PcieLink /
// WcBuffer); its contents survive power loss — the device saves the region
// to flash on a power cut and restores it on the next probe (§4.4 of the
// paper), which this model represents by simply never clearing the bytes.
//
// The bytes are a PageImage: a page the host never stored to holds no
// memory, and crash images and the stacks booted from them share pages
// copy-on-write instead of copying the region.
#ifndef SRC_NVME_PMR_H_
#define SRC_NVME_PMR_H_

#include <cstdint>
#include <span>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/ssd/media.h"

namespace ccnvme {

// Granularity at which an MMIO store to the PMR can tear across a power
// cut: the PCIe write bursts carrying a write-combining flush move whole
// naturally-aligned 8-byte words, so any word subset of an unfenced store
// may have landed — never a partial word.
inline constexpr size_t kMmioWordSize = 8;

class Pmr {
 public:
  explicit Pmr(size_t size_bytes = 2 * 1024 * 1024) : image_(size_bytes) {}
  // A region holding |image|'s bytes, sharing its pages.
  explicit Pmr(PageImage image) : image_(std::move(image)) {}

  size_t size() const { return image_.size(); }

  void Write(size_t offset, std::span<const uint8_t> data) { image_.Write(offset, data); }
  void Read(size_t offset, std::span<uint8_t> out) const { image_.Read(offset, out); }

  void WriteU32(size_t offset, uint32_t v) {
    uint8_t b[4];
    PutU32(b, 0, v);
    Write(offset, b);
  }
  uint32_t ReadU32(size_t offset) const {
    uint8_t b[4];
    Read(offset, b);
    return GetU32(b, 0);
  }

  // The region's pages, which a crash image captures by sharing them.
  const PageImage& image() const { return image_; }

 private:
  PageImage image_;
};

}  // namespace ccnvme

#endif  // SRC_NVME_PMR_H_
