// Streaming windowed blame aggregation.
//
// Folds every finished request into the virtual-time epoch its completion
// falls in: per-window request count, latency histogram and blame vector,
// maintained incrementally with O(1) memory per window — each window's
// state is bounded by the blame-key vocabulary (run points + wait edges),
// never by the number of requests folded into it. The window deque itself
// is bounded (oldest epochs evicted deterministically), so a multi-million
// request bench holds a sliding recent-history of epochs regardless of
// trace-ring retention — this is what replaces "hope the outlier's events
// are still in the ring".
//
// Whole-run totals are not kept here: they are the CriticalPathProfiler's
// own aggregates, which TailForensics reads directly.
#ifndef SRC_PROFILE_TAIL_WINDOWED_H_
#define SRC_PROFILE_TAIL_WINDOWED_H_

#include <cstdint>
#include <deque>
#include <map>

#include "src/common/stats.h"
#include "src/profile/critical_path.h"

namespace ccnvme {

struct WindowedOptions {
  // Virtual-time epoch width. 1 ms spans ~50-100 fsyncs on the default
  // stack — coarse enough to see convoys, fine enough to localize them.
  uint64_t window_ns = 1'000'000;
  // Retained epochs; the oldest is evicted deterministically when exceeded.
  size_t max_windows = 256;
};

class WindowedAggregator {
 public:
  struct Window {
    uint64_t index = 0;  // completion epoch: end_ns / window_ns
    uint64_t requests = 0;
    uint64_t total_latency_ns = 0;
    Histogram latency_ns;
    // packed BlameKey -> ns; bounded by the vocabulary, deterministic order.
    std::map<uint32_t, uint64_t> blame_ns;

    uint64_t begin_ns(uint64_t window_ns) const { return index * window_ns; }
    // Largest blame contributor of the epoch (ties: lowest packed key).
    BlameKey DominantKey() const;
  };

  explicit WindowedAggregator(WindowedOptions options = {});

  // Folds one finished request into its completion epoch. O(blame keys).
  void Add(const CriticalPathProfiler::RequestProfile& profile);
  void Reset();

  // Retained epochs, oldest first.
  const std::deque<Window>& windows() const { return windows_; }
  uint64_t windows_started() const { return windows_started_; }
  uint64_t windows_evicted() const { return windows_evicted_; }

  const WindowedOptions& options() const { return options_; }

 private:
  WindowedOptions options_;
  std::deque<Window> windows_;
  uint64_t windows_started_ = 0;
  uint64_t windows_evicted_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_PROFILE_TAIL_WINDOWED_H_
