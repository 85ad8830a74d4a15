// Persistent Memory Region (PMR, NVMe 1.4 §?).
//
// A byte-addressable region of capacitor-backed DRAM exposed on the SSD's
// BAR. CPU loads/stores reach it over PCIe (timing modeled by PcieLink /
// WcBuffer); its contents survive power loss — the device saves the region
// to flash on a power cut and restores it on the next probe (§4.4 of the
// paper), which this model represents by simply never clearing the bytes.
#ifndef SRC_NVME_PMR_H_
#define SRC_NVME_PMR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/logging.h"

namespace ccnvme {

// Granularity at which an MMIO store to the PMR can tear across a power
// cut: the PCIe write bursts carrying a write-combining flush move whole
// naturally-aligned 8-byte words, so any word subset of an unfenced store
// may have landed — never a partial word.
inline constexpr size_t kMmioWordSize = 8;

class Pmr {
 public:
  explicit Pmr(size_t size_bytes = 2 * 1024 * 1024) : bytes_(size_bytes, 0) {}

  size_t size() const { return bytes_.size(); }

  void Write(size_t offset, std::span<const uint8_t> data) {
    CCNVME_CHECK_LE(offset + data.size(), bytes_.size());
    std::memcpy(bytes_.data() + offset, data.data(), data.size());
  }

  void Read(size_t offset, std::span<uint8_t> out) const {
    CCNVME_CHECK_LE(offset + out.size(), bytes_.size());
    std::memcpy(out.data(), bytes_.data() + offset, out.size());
  }

  void WriteU32(size_t offset, uint32_t v) {
    CCNVME_CHECK_LE(offset + 4, bytes_.size());
    PutU32(bytes_, offset, v);
  }
  uint32_t ReadU32(size_t offset) const {
    CCNVME_CHECK_LE(offset + 4, bytes_.size());
    return GetU32(bytes_, offset);
  }

  std::span<const uint8_t> bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace ccnvme

#endif  // SRC_NVME_PMR_H_
