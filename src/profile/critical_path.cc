#include "src/profile/critical_path.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ccnvme {
namespace {

// Bounded buffers for not-yet-finalized requests and transactions; the
// oldest entries are evicted deterministically when exceeded.
constexpr size_t kMaxPendingRequests = 1 << 16;
constexpr size_t kMaxPendingTxs = 4096;

struct Interval {
  uint64_t begin = 0;
  uint64_t end = 0;
  BlameKey key;
};

// True when |a| outranks |b| as the owner of a covered instant: wait edges
// beat run spans, then the latest-starting (innermost) interval wins, then
// the earliest-ending, then the lowest key — a total order, so attribution
// is deterministic.
bool Outranks(const Interval& a, const Interval& b) {
  if (a.key.is_wait() != b.key.is_wait()) return a.key.is_wait();
  if (a.begin != b.begin) return a.begin > b.begin;
  if (a.end != b.end) return a.end < b.end;
  return a.key.packed() < b.key.packed();
}

// Exact decomposition of [begin, end) over |intervals|: every elementary
// segment goes to the highest-ranked covering interval, or to |fallback|
// when nothing covers it. Output is time-ordered, gap-free and merged, so
// segment durations sum to exactly end - begin.
std::vector<CriticalPathProfiler::Segment> Sweep(uint64_t begin, uint64_t end,
                                                 const std::vector<Interval>& intervals,
                                                 BlameKey fallback) {
  std::vector<CriticalPathProfiler::Segment> out;
  if (end <= begin) return out;
  std::vector<uint64_t> bounds;
  bounds.reserve(intervals.size() * 2 + 2);
  bounds.push_back(begin);
  bounds.push_back(end);
  for (const Interval& iv : intervals) {
    if (iv.begin > begin && iv.begin < end) bounds.push_back(iv.begin);
    if (iv.end > begin && iv.end < end) bounds.push_back(iv.end);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const uint64_t s = bounds[i];
    const uint64_t e = bounds[i + 1];
    const Interval* best = nullptr;
    for (const Interval& iv : intervals) {
      if (iv.begin <= s && iv.end >= e) {
        if (best == nullptr || Outranks(iv, *best)) best = &iv;
      }
    }
    const BlameKey key = best != nullptr ? best->key : fallback;
    if (!out.empty() && out.back().key == key && out.back().end_ns == s) {
      out.back().end_ns = e;
    } else {
      out.push_back(CriticalPathProfiler::Segment{s, e, key});
    }
  }
  return out;
}

// Clips [ev.ts, ev.ts + ev.dur) to [begin, end); returns false when empty.
bool Clip(const TraceEvent& ev, uint64_t begin, uint64_t end, Interval* out) {
  const uint64_t s = std::max(ev.ts_ns, begin);
  const uint64_t e = std::min(ev.ts_ns + ev.dur_ns, end);
  if (e <= s) return false;
  out->begin = s;
  out->end = e;
  return true;
}

bool IsDeviceSideRun(const TraceEvent& ev) {
  if (!ev.is_span || ev.is_wait_edge()) return false;
  const TraceLayer layer = TracePointLayer(ev.point);
  return layer == TraceLayer::kNvme || layer == TraceLayer::kPcie;
}

}  // namespace

uint64_t CriticalPathProfiler::RequestProfile::TotalBlame() const {
  uint64_t sum = 0;
  for (const auto& [key, ns] : blame_ns) {
    (void)key;
    sum += ns;
  }
  return sum;
}

BlameKey CriticalPathProfiler::RequestProfile::DominantKey() const {
  BlameKey best{};
  uint64_t best_ns = 0;
  for (const auto& [packed, ns] : blame_ns) {
    if (ns > best_ns) {
      best_ns = ns;
      best = BlameKey::FromPacked(packed);
    }
  }
  return best;
}

CriticalPathProfiler::CriticalPathProfiler(ProfilerOptions options) : options_(options) {}

void CriticalPathProfiler::Attach(Tracer* tracer) {
  CCNVME_CHECK(tracer != nullptr);
  tracer->set_sink(this);
}

void CriticalPathProfiler::OnTraceEvent(const TraceEvent& ev) {
  if (ev.req_id != 0) {
    if (ev.is_span && !ev.is_wait_edge() && ev.point == options_.root) {
      auto it = pending_.find(ev.req_id);
      if (it != pending_.end()) {
        Finalize(ev.req_id, ev, it->second);
        pending_.erase(it);
      } else {
        Pending empty;
        Finalize(ev.req_id, ev, empty);
      }
      return;
    }
    auto [it, inserted] = pending_.try_emplace(ev.req_id);
    if (inserted) pending_order_.push_back(ev.req_id);
    it->second.events.push_back(ev);
    EvictIfNeeded();
    return;
  }
  if (ev.tx_id != 0) {
    auto [it, inserted] = tx_events_.try_emplace(ev.tx_id);
    if (inserted) tx_order_.push_back(ev.tx_id);
    it->second.push_back(ev);
    EvictIfNeeded();
  }
}

void CriticalPathProfiler::EvictIfNeeded() {
  while (pending_.size() > kMaxPendingRequests && !pending_order_.empty()) {
    const uint64_t req = pending_order_.front();
    pending_order_.pop_front();
    pending_.erase(req);
  }
  while (tx_events_.size() > kMaxPendingTxs && !tx_order_.empty()) {
    const uint64_t tx = tx_order_.front();
    tx_order_.pop_front();
    tx_events_.erase(tx);
  }
}

void CriticalPathProfiler::Finalize(uint64_t req_id, const TraceEvent& root,
                                    Pending& pending) {
  const uint64_t begin = root.ts_ns;
  const uint64_t end = root.ts_ns + root.dur_ns;
  const BlameKey root_key = BlameKey::Run(options_.root);

  RequestProfile profile;
  profile.req_id = req_id;
  profile.tx_id = root.tx_id;
  profile.begin_ns = begin;
  profile.end_ns = end;

  // Level 1: the request's own spans and waits carve up the window.
  std::vector<Interval> level1;
  level1.reserve(pending.events.size());
  for (const TraceEvent& ev : pending.events) {
    profile.tx_id = std::max(profile.tx_id, ev.tx_id);
    Interval iv;
    if (ev.is_wait_edge()) {
      if (!Clip(ev, begin, end, &iv)) continue;
      iv.key = BlameKey::Wait(ev.edge);
      level1.push_back(iv);
    } else if (ev.is_span && ev.point != options_.root) {
      if (!Clip(ev, begin, end, &iv)) continue;
      iv.key = BlameKey::Run(ev.point);
      level1.push_back(iv);
    }
  }
  profile.critical_path = Sweep(begin, end, level1, root_key);
  for (const Segment& seg : profile.critical_path) {
    profile.blame_ns[seg.key.packed()] += seg.dur_ns();
  }

  // Level 2 (DAG expansion): inside each wait window, attribute the blocked
  // time to the other side of the dependency — device/PCIe spans of this
  // request plus transaction-matched work by other actors (kjournald's
  // commit, volume fan-out stragglers, the device executing the tx).
  std::vector<Interval> sub;
  for (const TraceEvent& ev : pending.events) {
    Interval iv;
    if (ev.is_wait_edge()) {
      iv.key = BlameKey::Wait(ev.edge);
    } else if (IsDeviceSideRun(ev)) {
      iv.key = BlameKey::Run(ev.point);
    } else {
      continue;
    }
    if (!Clip(ev, begin, end, &iv)) continue;
    sub.push_back(iv);
  }
  if (profile.tx_id != 0) {
    auto it = tx_events_.find(profile.tx_id);
    if (it != tx_events_.end()) {
      for (const TraceEvent& ev : it->second) {
        Interval iv;
        if (ev.is_wait_edge()) {
          iv.key = BlameKey::Wait(ev.edge);
        } else if (ev.is_span) {
          iv.key = BlameKey::Run(ev.point);
        } else {
          continue;
        }
        if (!Clip(ev, begin, end, &iv)) continue;
        sub.push_back(iv);
      }
    }
  }
  for (const Segment& seg : profile.critical_path) {
    if (!seg.key.is_wait()) continue;
    std::vector<Interval> window;
    for (const Interval& iv : sub) {
      if (iv.key == seg.key) continue;  // the wait cannot explain itself
      if (iv.end <= seg.begin_ns || iv.begin >= seg.end_ns) continue;
      Interval clipped = iv;
      clipped.begin = std::max(iv.begin, seg.begin_ns);
      clipped.end = std::min(iv.end, seg.end_ns);
      window.push_back(clipped);
    }
    auto& detail = profile.wait_detail_ns[seg.key.packed()];
    for (const Segment& d : Sweep(seg.begin_ns, seg.end_ns, window, seg.key)) {
      detail[d.key.packed()] += d.dur_ns();
    }
  }

  // Aggregate.
  finished_requests_++;
  total_latency_ns_ += profile.latency_ns();
  latency_ns_.Add(profile.latency_ns());
  for (const auto& [packed, ns] : profile.blame_ns) {
    KeyAgg& agg = blame_[packed];
    agg.total_ns += ns;
    agg.requests++;
    agg.per_request_ns.Add(ns);
  }
  for (const auto& [wait, detail] : profile.wait_detail_ns) {
    auto& agg = wait_detail_[wait];
    for (const auto& [sub_key, ns] : detail) {
      agg[sub_key] += ns;
    }
  }
  for (RequestObserver* observer : request_observers_) {
    observer->OnRequestProfile(profile, pending.events);
  }
}

std::vector<std::pair<BlameKey, uint64_t>> CriticalPathProfiler::TopKeys(size_t k) const {
  std::vector<std::pair<BlameKey, uint64_t>> out;
  out.reserve(blame_.size());
  for (const auto& [packed, agg] : blame_) {
    out.emplace_back(BlameKey::FromPacked(packed), agg.total_ns);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first.packed() < b.first.packed();
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<std::pair<BlameKey, uint64_t>> CriticalPathProfiler::TopWaitEdges(
    size_t k) const {
  std::vector<std::pair<BlameKey, uint64_t>> out;
  for (const auto& [packed, agg] : blame_) {
    const BlameKey key = BlameKey::FromPacked(packed);
    if (key.is_wait()) out.emplace_back(key, agg.total_ns);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first.packed() < b.first.packed();
  });
  if (out.size() > k) out.resize(k);
  return out;
}

BlameKey CriticalPathProfiler::DominantKey() const {
  auto top = TopKeys(1);
  return top.empty() ? BlameKey{} : top[0].first;
}

void CriticalPathProfiler::ResetAggregation() {
  finished_requests_ = 0;
  total_latency_ns_ = 0;
  latency_ns_.Reset();
  blame_.clear();
  wait_detail_.clear();
  for (RequestObserver* observer : request_observers_) {
    observer->OnResetAggregation();
  }
}

void CriticalPathProfiler::AddRequestObserver(RequestObserver* observer) {
  if (observer == nullptr) return;
  for (RequestObserver* existing : request_observers_) {
    if (existing == observer) return;
  }
  request_observers_.push_back(observer);
}

void CriticalPathProfiler::RemoveRequestObserver(RequestObserver* observer) {
  for (auto it = request_observers_.begin(); it != request_observers_.end(); ++it) {
    if (*it == observer) {
      request_observers_.erase(it);
      return;
    }
  }
}

}  // namespace ccnvme
