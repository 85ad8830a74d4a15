#include "src/sim/resource.h"

#include <algorithm>

namespace ccnvme {

uint64_t BandwidthPipe::TransferTimeNs(uint64_t size_bytes) const {
  if (bytes_per_second_ == 0) {
    return 0;
  }
  // ns = bytes * 1e9 / rate, computed in a double to avoid overflow for
  // multi-gigabyte rates; precision loss is < 1 ns at our scales.
  return static_cast<uint64_t>(static_cast<double>(size_bytes) * 1e9 /
                               static_cast<double>(bytes_per_second_));
}

uint64_t BandwidthPipe::ReserveFinishTime(uint64_t size_bytes) {
  const uint64_t duration = TransferTimeNs(size_bytes);
  bytes_transferred_ += size_bytes;
  const uint64_t now = sim_->now();
  if (duration == 0) {
    return now;
  }
  const uint64_t start = std::max(now, available_at_ns_);
  available_at_ns_ = start + duration;
  busy_ns_ += duration;
  return available_at_ns_;
}

void BandwidthPipe::Transfer(uint64_t size_bytes) {
  const uint64_t finish = ReserveFinishTime(size_bytes);
  const uint64_t now = sim_->now();
  if (finish > now) {
    Simulator::Sleep(finish - now);
  }
}

double BandwidthPipe::UtilizationSince(uint64_t window_start_ns) const {
  const uint64_t now = sim_->now();
  if (now <= window_start_ns) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(busy_ns_) /
                           static_cast<double>(now - window_start_ns));
}

void BandwidthPipe::ResetStats() {
  busy_ns_ = 0;
  bytes_transferred_ = 0;
  stats_epoch_ns_ = sim_->now();
}

}  // namespace ccnvme
