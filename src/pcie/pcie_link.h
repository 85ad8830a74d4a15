// PCIe link model.
//
// Models the host <-> SSD link as two full-duplex bandwidth pipes plus a
// latency model for programmed I/O:
//   * MMIO writes are *posted*: the CPU pays only the store/WC-drain cost
//     and continues; the payload occupies the downstream pipe
//     asynchronously.
//   * MMIO reads are *non-posted* and, per PCIe ordering (Table 2-39 of the
//     PCIe 3.1a spec), must not pass previously posted writes. ReadFence()
//     therefore waits for the downstream pipe to drain and then pays a full
//     round trip. ccNVMe's persistent-MMIO step 3 is exactly this read.
//   * DMA transfers are device-initiated and occupy the respective pipe for
//     their payload.
//
// The timing constants in pcie_link.cc and PcieConfig's defaults are
// calibrated against Figure 5 of the paper (2 MB PMR, PCIe 3.0 x4). See
// bench/fig5_pmr.cc.
#ifndef SRC_PCIE_PCIE_LINK_H_
#define SRC_PCIE_PCIE_LINK_H_

#include <cstdint>
#include <string>

#include "src/pcie/traffic.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace ccnvme {

// The WC-drain timings: the doorbell-cost injection and the pathology
// scenarios vary them.
struct PcieConfig {
  // MMIO-write streaming is much slower than DMA: the CPU's WC drain engine
  // tops out near 1 GB/s on this class of hardware (Figure 5's bandwidth
  // plateau for large writes).
  uint64_t mmio_write_bytes_per_sec = 1'100'000'000ull;
  // Fixed cost of issuing one MMIO write burst (TLP formation, uncore).
  uint64_t mmio_write_overhead_ns = 250;
  // Posted writes are async only up to this much backlog in the WC drain
  // engine; beyond it the stores stall at the drain rate (this is what
  // makes Figure 5's write latency grow linearly for large payloads).
  uint64_t max_mmio_backlog_ns = 2'000;
};

class PcieLink {
 public:
  PcieLink(Simulator* sim, const PcieConfig& config);

  // --- Host-side programmed I/O (call from host actors) -----------------

  // Posted MMIO write of |bytes| (one write-combined burst). The caller is
  // charged the CPU-side cost; the wire occupancy is accounted to the
  // downstream pipe asynchronously.
  void MmioWrite(uint64_t bytes);

  // Non-posted read that flushes all previously posted writes (zero-length
  // read usage in ccNVMe) and then completes a round trip. |bytes| may be 0.
  void MmioReadFence(uint64_t bytes);

  // CPU cost of storing |bytes| into a WC-mapped region *without* issuing
  // the burst yet (stores land in the WC buffer).
  void CpuStoreToWc(uint64_t bytes);

  // CPU cost of clflush+mfence over |bytes| of WC/PMR space.
  void CpuFlushLines(uint64_t bytes);

  // --- Device-side DMA (call from device actors) -------------------------

  // Device fetches |bytes| of queue entries from host memory (downstream
  // request, upstream completion; dominated by upstream data return).
  void DmaQueueFetch(uint64_t bytes);
  // Device posts |bytes| of queue entries (CQEs) to host memory.
  void DmaQueuePost(uint64_t bytes);
  // Device moves a data payload; |to_device| true for write data.
  void DmaData(uint64_t bytes, bool to_device);

  // MSI-X: schedules |handler| on the event loop after delivery latency.
  void RaiseIrq(std::function<void()> handler);

  const TrafficStats& traffic() const { return traffic_; }
  TrafficStats SnapshotTraffic() const { return traffic_; }

  const PcieConfig& config() const { return config_; }
  BandwidthPipe& downstream() { return down_; }
  BandwidthPipe& upstream() { return up_; }

  static uint64_t CacheLines(uint64_t bytes) { return (bytes + 63) / 64; }

 private:
  Simulator* sim_;
  PcieConfig config_;
  BandwidthPipe down_;
  BandwidthPipe up_;
  // Drain horizon for posted MMIO writes (separate from DMA bandwidth: the
  // WC engine is the bottleneck, not the link).
  uint64_t mmio_drain_at_ns_ = 0;
  TrafficStats traffic_;
};

}  // namespace ccnvme

#endif  // SRC_PCIE_PCIE_LINK_H_
