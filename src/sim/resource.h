// Contended-resource models: counted servers and FIFO bandwidth pipes.
#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <cstdint>
#include <string>

#include "src/sim/sync.h"

namespace ccnvme {

// A server pool with |capacity| identical units (e.g. SSD flash channels).
// Use() occupies |n| units for |hold_ns| of virtual time; waiters are
// admitted FIFO.
class Resource {
 public:
  Resource(Simulator* sim, std::string name, uint64_t capacity)
      : name_(std::move(name)), sem_(sim, capacity), capacity_(capacity) {}

  void Acquire(uint64_t n = 1) { sem_.Acquire(n); }
  void Release(uint64_t n = 1) { sem_.Release(n); }

  void Use(uint64_t n, uint64_t hold_ns) {
    Acquire(n);
    Simulator::Sleep(hold_ns);
    Release(n);
  }

  uint64_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  SimSemaphore sem_;
  uint64_t capacity_;
};

// A serialized FIFO pipe with a fixed byte rate (e.g. a PCIe link or the
// SSD's internal backend). Transfer() blocks the calling actor for the
// queueing delay plus the transfer time. Reservations are granted in call
// order using a virtual "available at" horizon, which models an ideal
// work-conserving FIFO link without per-waiter bookkeeping.
class BandwidthPipe {
 public:
  // |bytes_per_second| == 0 means infinite bandwidth (Transfer is free).
  BandwidthPipe(Simulator* sim, std::string name, uint64_t bytes_per_second)
      : sim_(sim), name_(std::move(name)), bytes_per_second_(bytes_per_second) {}

  // Occupies the pipe for size_bytes at the configured rate.
  void Transfer(uint64_t size_bytes);

  // Reserves a slot without blocking: returns the virtual time at which the
  // transfer would complete. Callers overlap this with other service stages
  // (e.g. media program latency) by sleeping until max() of the stages.
  uint64_t ReserveFinishTime(uint64_t size_bytes);

  // Time the pipe would take for |size_bytes| with no queueing.
  uint64_t TransferTimeNs(uint64_t size_bytes) const;

  // Fraction of [window_start, now] during which the pipe was busy.
  double UtilizationSince(uint64_t window_start_ns) const;
  uint64_t busy_ns() const { return busy_ns_; }
  uint64_t bytes_transferred() const { return bytes_transferred_; }
  void ResetStats();

  uint64_t bytes_per_second() const { return bytes_per_second_; }

 private:
  Simulator* sim_;
  std::string name_;
  uint64_t bytes_per_second_;
  uint64_t available_at_ns_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t bytes_transferred_ = 0;
  uint64_t stats_epoch_ns_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_SIM_RESOURCE_H_
