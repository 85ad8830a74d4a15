#include "src/pcie/pcie_link.h"

#include <algorithm>
#include <cstdio>

#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {
namespace {

// Raw link rate per direction. PCIe 3.0 x4 nets ~3.2 GB/s after encoding
// and TLP overhead.
constexpr uint64_t kLinkBytesPerSec = 3'200'000'000ull;
// Payload return rate of a non-posted MMIO read.
constexpr uint64_t kMmioReadBytesPerSec = 350'000'000ull;
// CPU-visible cost of one cache-line store into a WC-mapped region.
constexpr uint64_t kStorePerLineNs = 18;
// clflush of one dirty line plus its share of the mfence. Flushing
// WC-mapped lines is cheap; the dominant persistence cost is the read
// fence, which is why write+sync converges to write for large payloads.
constexpr uint64_t kClflushPerLineNs = 10;
// Round trip of a non-posted read (the persistence fence).
constexpr uint64_t kReadRttNs = 500;
// Device-side setup latency per DMA descriptor.
constexpr uint64_t kDmaSetupNs = 200;
// Delivery latency of an MSI-X interrupt.
constexpr uint64_t kIrqDeliveryNs = 300;

}  // namespace

std::string TrafficStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "mmio_w=%llu mmio_r=%llu dmaQ=%llu blkio=%llu irq=%llu",
                static_cast<unsigned long long>(mmio_writes),
                static_cast<unsigned long long>(mmio_reads),
                static_cast<unsigned long long>(dma_queue_ops),
                static_cast<unsigned long long>(block_ios),
                static_cast<unsigned long long>(irqs));
  return buf;
}

PcieLink::PcieLink(Simulator* sim, const PcieConfig& config)
    : sim_(sim),
      config_(config),
      down_(sim, "pcie_down", kLinkBytesPerSec),
      up_(sim, "pcie_up", kLinkBytesPerSec) {}

void PcieLink::CpuStoreToWc(uint64_t bytes) {
  Simulator::Sleep(CacheLines(bytes) * kStorePerLineNs);
}

void PcieLink::CpuFlushLines(uint64_t bytes) {
  Simulator::Sleep(CacheLines(bytes) * kClflushPerLineNs);
}

void PcieLink::MmioWrite(uint64_t bytes) {
  traffic_.mmio_writes++;
  traffic_.mmio_write_bytes += bytes;
  if (Tracer* t = sim_->tracer()) {
    t->Instant(TracePoint::kMmioWrite, bytes);
    t->AddCounter(TraceCounter::kMmioWrites);
    t->AddCounter(TraceCounter::kMmioWriteBytes, bytes);
  }
  // CPU-side: fixed TLP issue cost. The burst then drains through the WC
  // engine at mmio_write_bytes_per_sec without stalling the CPU (posted).
  const uint64_t drain_ns = config_.mmio_write_bytes_per_sec == 0
                                ? 0
                                : static_cast<uint64_t>(static_cast<double>(bytes) * 1e9 /
                                                        static_cast<double>(
                                                            config_.mmio_write_bytes_per_sec));
  const uint64_t now = sim_->now();
  const uint64_t start = std::max(now, mmio_drain_at_ns_);
  mmio_drain_at_ns_ = start + drain_ns;
  uint64_t stall = config_.mmio_write_overhead_ns;
  if (mmio_drain_at_ns_ > now + config_.max_mmio_backlog_ns) {
    // WC buffers full: the CPU stalls until the backlog drains below cap.
    stall += mmio_drain_at_ns_ - now - config_.max_mmio_backlog_ns;
  }
  Simulator::Sleep(stall);
  if (Tracer* t = sim_->tracer()) {
    // Only the stall beyond the fixed TLP-issue cost is a causal wait (the
    // CPU parked behind the WC-buffer drain backlog).
    t->WaitEdgeEvent(WaitEdge::kWcDrain, now + config_.mmio_write_overhead_ns, now + stall,
                     bytes);
  }
}

void PcieLink::MmioReadFence(uint64_t bytes) {
  traffic_.mmio_reads++;
  Tracer* tracer = sim_->tracer();
  if (tracer != nullptr) tracer->AddCounter(TraceCounter::kMmioReads);
  ScopedSpan span(tracer, TracePoint::kWcFlush, bytes);
  const uint64_t now = sim_->now();
  // The read must not pass posted writes: wait for the drain horizon, then
  // pay a round trip plus payload return time.
  uint64_t wait = mmio_drain_at_ns_ > now ? mmio_drain_at_ns_ - now : 0;
  wait += kReadRttNs + static_cast<uint64_t>(static_cast<double>(bytes) * 1e9 /
                                             static_cast<double>(kMmioReadBytesPerSec));
  const uint64_t drain_horizon = mmio_drain_at_ns_;
  Simulator::Sleep(wait);
  if (tracer != nullptr && drain_horizon > now) {
    // Portion of the fence spent held behind not-yet-drained posted writes
    // (ordering wait), as opposed to the unavoidable read RTT.
    tracer->WaitEdgeEvent(WaitEdge::kPostedOrder, now, drain_horizon, bytes);
  }
  if (Metrics* m = sim_->metrics()) {
    // Non-posted reads must not pass posted writes: by the time the fence
    // returns, every posted MMIO burst issued before it must have drained.
    m->monitors().OnReadFence(drain_horizon);
  }
}

void PcieLink::DmaQueueFetch(uint64_t bytes) {
  traffic_.dma_queue_ops++;
  traffic_.dma_queue_bytes += bytes;
  Tracer* tracer = sim_->tracer();
  if (tracer != nullptr) {
    tracer->AddCounter(TraceCounter::kDmaQueueOps);
    tracer->AddCounter(TraceCounter::kDmaQueueBytes, bytes);
  }
  ScopedSpan span(tracer, TracePoint::kDmaQueue, bytes);
  Simulator::Sleep(kDmaSetupNs);
  up_.Transfer(bytes);
}

void PcieLink::DmaQueuePost(uint64_t bytes) {
  traffic_.dma_queue_ops++;
  traffic_.dma_queue_bytes += bytes;
  Tracer* tracer = sim_->tracer();
  if (tracer != nullptr) {
    tracer->AddCounter(TraceCounter::kDmaQueueOps);
    tracer->AddCounter(TraceCounter::kDmaQueueBytes, bytes);
  }
  ScopedSpan span(tracer, TracePoint::kDmaQueue, bytes);
  Simulator::Sleep(kDmaSetupNs);
  up_.Transfer(bytes);
}

void PcieLink::DmaData(uint64_t bytes, bool to_device) {
  traffic_.block_ios++;
  traffic_.block_io_bytes += bytes;
  Tracer* tracer = sim_->tracer();
  if (tracer != nullptr) {
    tracer->AddCounter(TraceCounter::kBlockIos);
    tracer->AddCounter(TraceCounter::kBlockIoBytes, bytes);
  }
  ScopedSpan span(tracer, TracePoint::kDmaData, bytes);
  Simulator::Sleep(kDmaSetupNs);
  if (to_device) {
    down_.Transfer(bytes);
  } else {
    up_.Transfer(bytes);
  }
}

void PcieLink::RaiseIrq(std::function<void()> handler) {
  traffic_.irqs++;
  if (Tracer* t = sim_->tracer()) {
    t->Instant(TracePoint::kMsix);
    t->AddCounter(TraceCounter::kIrqs);
  }
  sim_->Schedule(kIrqDeliveryNs, std::move(handler));
}

}  // namespace ccnvme
