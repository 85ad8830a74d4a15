#include "src/profile/tail/windowed.h"

#include "src/common/logging.h"

namespace ccnvme {

BlameKey WindowedAggregator::Window::DominantKey() const {
  BlameKey best;
  uint64_t best_ns = 0;
  for (const auto& [packed, ns] : blame_ns) {
    if (ns > best_ns) {
      best_ns = ns;
      best = BlameKey::FromPacked(packed);
    }
  }
  return best;
}

WindowedAggregator::WindowedAggregator(WindowedOptions options)
    : options_(options) {
  CCNVME_CHECK_GT(options_.window_ns, 0u);
  CCNVME_CHECK_GT(options_.max_windows, 0u);
}

void WindowedAggregator::Add(const CriticalPathProfiler::RequestProfile& profile) {
  // Requests finalize in completion order (the simulator is serial), so the
  // epoch index is non-decreasing; a match is at the back or not retained.
  const uint64_t index = profile.end_ns / options_.window_ns;
  if (windows_.empty() || windows_.back().index < index) {
    Window w;
    w.index = index;
    windows_.push_back(std::move(w));
    ++windows_started_;
    if (windows_.size() > options_.max_windows) {
      windows_.pop_front();
      ++windows_evicted_;
    }
  }
  Window& w = windows_.back();
  ++w.requests;
  w.total_latency_ns += profile.latency_ns();
  w.latency_ns.Add(profile.latency_ns());
  for (const auto& [packed, ns] : profile.blame_ns) {
    w.blame_ns[packed] += ns;
  }
}

void WindowedAggregator::Reset() {
  windows_.clear();
  windows_started_ = 0;
  windows_evicted_ = 0;
}

}  // namespace ccnvme
