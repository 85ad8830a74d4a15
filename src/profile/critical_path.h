// Causal critical-path profiler.
//
// Consumes the Tracer's event stream (spans + instants + wait edges, in
// append order, via the TraceSink hook) and reconstructs, per request, an
// exact decomposition of end-to-end virtual-time latency into *blamed*
// segments:
//
//   * A request is delimited by its root span (kSyncTotal by default): the
//     profile window is [root begin, root end].
//   * Every nanosecond of the window is attributed to exactly ONE blame key
//     — a wait edge ("the request was blocked on X") or a run span ("the
//     request was executing phase Y"). Wait edges take priority over run
//     spans; among overlapping candidates the latest-starting (innermost /
//     most specific) wins; uncovered time falls back to the root phase.
//     This is a total, non-overlapping decomposition, so
//         sum(blame) == end-to-end latency    EXACTLY (asserted in tests).
//   * The critical path is the resulting time-ordered segment sequence.
//
// A second level ("wait detail") re-attributes each *wait* window against
// the causally responsible work on the other side of the dependency edge:
// device/PCIe-layer spans of the same request plus transaction-matched
// events recorded by OTHER actors (kjournald's commit span, the device-side
// execution of the same tx, volume fan-out straggler edges). This is the
// DAG expansion that answers "the request waited on durability — where did
// the device spend that time?".
//
// The profiler is an observer: it never touches the Simulator (no sleeps,
// no scheduling), so profiling on/off yields byte-identical virtual time —
// the same contract the Tracer itself keeps (proven by tests).
#ifndef SRC_PROFILE_CRITICAL_PATH_H_
#define SRC_PROFILE_CRITICAL_PATH_H_

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/trace/tracer.h"

namespace ccnvme {

// One attribution target: a wait edge or a run phase (trace point).
struct BlameKey {
  enum class Kind : uint16_t { kRun = 0, kWait = 1 };

  Kind kind = Kind::kRun;
  uint16_t index = 0;  // TracePoint (kRun) or WaitEdge (kWait)

  static BlameKey Run(TracePoint p) {
    return BlameKey{Kind::kRun, static_cast<uint16_t>(p)};
  }
  static BlameKey Wait(WaitEdge e) {
    return BlameKey{Kind::kWait, static_cast<uint16_t>(e)};
  }
  // Orderable packed form; kWait sorts after kRun. Used as the map key so
  // every report iterates in a deterministic order.
  uint32_t packed() const {
    return (static_cast<uint32_t>(kind) << 16) | index;
  }
  static BlameKey FromPacked(uint32_t p) {
    return BlameKey{static_cast<Kind>(p >> 16), static_cast<uint16_t>(p & 0xffff)};
  }
  bool is_wait() const { return kind == Kind::kWait; }
  const char* name() const {
    return is_wait() ? WaitEdgeName(static_cast<WaitEdge>(index))
                     : TracePointName(static_cast<TracePoint>(index));
  }
  bool operator==(const BlameKey& o) const { return packed() == o.packed(); }
  bool operator<(const BlameKey& o) const { return packed() < o.packed(); }
};

struct ProfilerOptions {
  // Span point that delimits one request (profile window = this span).
  TracePoint root = TracePoint::kSyncTotal;
};

class CriticalPathProfiler : public TraceSink {
 public:
  // Forward declared; see below.
  class RequestObserver;

  explicit CriticalPathProfiler(ProfilerOptions options = {});

  // Convenience: tracer->set_sink(this).
  void Attach(Tracer* tracer);

  // TraceSink. Never blocks, never reads the clock.
  void OnTraceEvent(const TraceEvent& ev) override;

  // --- Per-request results ------------------------------------------------

  struct Segment {
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
    BlameKey key;
    uint64_t dur_ns() const { return end_ns - begin_ns; }
  };

  struct RequestProfile {
    uint64_t req_id = 0;
    uint64_t tx_id = 0;  // highest tx id observed on the request's events
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
    // Time-ordered, gap-free, non-overlapping; adjacent same-key merged.
    std::vector<Segment> critical_path;
    // packed BlameKey -> ns. Sums exactly to latency_ns().
    std::map<uint32_t, uint64_t> blame_ns;
    // packed wait key -> (packed sub key -> ns). Each wait's detail sums
    // exactly to that wait's blame_ns entry; the remainder bucket is the
    // wait key itself.
    std::map<uint32_t, std::map<uint32_t, uint64_t>> wait_detail_ns;

    uint64_t latency_ns() const { return end_ns - begin_ns; }
    uint64_t TotalBlame() const;
    // Largest single blame contributor (ties: lowest packed key).
    BlameKey DominantKey() const;
  };

  // --- Aggregates ----------------------------------------------------------

  struct KeyAgg {
    uint64_t total_ns = 0;   // summed blame across finished requests
    uint64_t requests = 0;   // requests where this key got any blame
    Histogram per_request_ns;
  };

  uint64_t finished_requests() const { return finished_requests_; }
  uint64_t total_latency_ns() const { return total_latency_ns_; }
  const Histogram& latency_ns() const { return latency_ns_; }
  // packed key -> aggregate, deterministic iteration order.
  const std::map<uint32_t, KeyAgg>& blame() const { return blame_; }
  // Aggregated wait detail: packed wait key -> packed sub key -> total ns.
  const std::map<uint32_t, std::map<uint32_t, uint64_t>>& wait_detail() const {
    return wait_detail_;
  }

  // Keys ranked by total blame, descending (ties: lowest packed key first).
  std::vector<std::pair<BlameKey, uint64_t>> TopKeys(size_t k) const;
  std::vector<std::pair<BlameKey, uint64_t>> TopWaitEdges(size_t k) const;
  // Largest aggregate contributor; meaningful once finished_requests() > 0.
  BlameKey DominantKey() const;

  // Clears aggregates; keeps in-flight buffers so a warm-up boundary mid-run
  // stays consistent (mirrors Tracer::ResetAggregation). Forwarded to the
  // request observers.
  void ResetAggregation();

  const ProfilerOptions& options() const { return options_; }

  // Downstream consumer of finished per-request profiles (the what-if
  // engine, the tail-forensics layer, which keeps the slowest requests as
  // exemplars). Receives each profile at
  // finalization together with the request's raw buffered events, which
  // carry the structure the merged blame vector has already collapsed:
  // every individual wait interval and run span with begin/end/device. The
  // tracer-sink contract extends here — observers must never touch the
  // simulator.
  class RequestObserver {
   public:
    virtual ~RequestObserver() = default;
    virtual void OnRequestProfile(const RequestProfile& profile,
                                  const std::vector<TraceEvent>& events) = 0;
    // The profiler crossed a warm-up boundary; drop aggregated state.
    virtual void OnResetAggregation() {}
  };
  // Observers are notified in registration order (deterministic). Adding
  // the same observer twice is a no-op.
  void AddRequestObserver(RequestObserver* observer);
  void RemoveRequestObserver(RequestObserver* observer);

 private:
  struct Pending {
    std::vector<TraceEvent> events;
  };

  void Finalize(uint64_t req_id, const TraceEvent& root, Pending& pending);
  void EvictIfNeeded();

  ProfilerOptions options_;

  // req id -> buffered events, with deterministic FIFO eviction.
  std::unordered_map<uint64_t, Pending> pending_;
  std::deque<uint64_t> pending_order_;
  // tx id -> events seen with req==0 (other actors working for the tx).
  std::unordered_map<uint64_t, std::vector<TraceEvent>> tx_events_;
  std::deque<uint64_t> tx_order_;

  uint64_t finished_requests_ = 0;
  uint64_t total_latency_ns_ = 0;
  Histogram latency_ns_;
  std::map<uint32_t, KeyAgg> blame_;
  std::map<uint32_t, std::map<uint32_t, uint64_t>> wait_detail_;
  std::vector<RequestObserver*> request_observers_;
};

}  // namespace ccnvme

#endif  // SRC_PROFILE_CRITICAL_PATH_H_
