// Virtual-time tracer: per-actor span stacks, a bounded ring of typed
// events, per-point aggregation and fixed hot-path counters.
//
// Invariants (enforced by tests/trace_test.cc):
//   * Zero allocation on the hot path. The ring and aggregation tables are
//     preallocated; per-actor span stacks reserve their depth up front and a
//     track is allocated only on an actor's FIRST event.
//   * Never perturbs virtual time. The tracer only reads Simulator::now()
//     and writes memory — it never sleeps, schedules or blocks, so a run
//     with a tracer attached is byte-identical to one without.
//   * Deterministic output. Track ids are assigned in first-event order,
//     which is itself deterministic under the simulator's serial execution.
//
// Spans are recorded on EndSpan as one complete event (begin timestamps are
// held on the per-actor stack), so a wrapped ring never contains an
// unmatched begin/end pair. Spans still open at export time are emitted from
// the live stacks.
#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_context.h"
#include "src/trace/trace_point.h"

namespace ccnvme {

struct TraceEvent {
  uint64_t ts_ns = 0;   // begin time for spans/edges, event time for instants
  uint64_t dur_ns = 0;  // spans and wait edges only
  uint64_t req_id = 0;
  uint64_t tx_id = 0;
  uint64_t arg0 = 0;
  TracePoint point = TracePoint::kNumPoints;
  // Set (!= kNumEdges) iff this event is a wait edge; then [ts_ns,
  // ts_ns+dur_ns] is the blocked window and |point| is unused.
  WaitEdge edge = WaitEdge::kNumEdges;
  bool is_span = false;
  uint32_t track = 0;
  uint16_t device = 0;  // volume member device the event executed against

  bool is_wait_edge() const { return edge != WaitEdge::kNumEdges; }
};

// Observer of the full event stream, in append order. Used by the
// critical-path profiler to see every event without ring-wraparound loss.
// Implementations MUST NOT touch the simulator (no Sleep/Schedule): the
// tracer's "never perturbs virtual time" contract extends to its sink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTraceEvent(const TraceEvent& ev) = 0;
};

class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 16;

  explicit Tracer(Simulator* sim, size_t ring_capacity = kDefaultRingCapacity);

  // --- Events (hot path) --------------------------------------------------

  // Opens a span on the calling actor's stack. Must be closed by EndSpan of
  // the SAME point on the same actor (LIFO). The request/transaction context
  // is captured at begin time.
  void BeginSpan(TracePoint point, uint64_t arg0 = 0);
  void EndSpan(TracePoint point);

  // Records a point event. Context comes from the calling actor's
  // TraceContext unless given explicitly.
  void Instant(TracePoint point, uint64_t arg0 = 0);
  void InstantWith(TracePoint point, const TraceContext& ctx, uint64_t arg0 = 0);

  // Records one causal wait edge: the context's request/transaction was
  // blocked on |edge| over [begin_ns, end_ns]. No-op when end_ns <= begin_ns
  // (call sites measure around possibly-blocking operations and emit
  // unconditionally). end_ns may lie in the past relative to now() — some
  // edges (doorbell coalescing, fan-out stragglers) are only attributable
  // after the fact.
  void WaitEdgeEvent(WaitEdge edge, uint64_t begin_ns, uint64_t end_ns, uint64_t arg0 = 0);
  void WaitEdgeWith(WaitEdge edge, const TraceContext& ctx, uint64_t begin_ns, uint64_t end_ns,
                    uint64_t arg0 = 0);

  // --- Counters (hot path) ------------------------------------------------

  void AddCounter(TraceCounter c, uint64_t delta = 1) {
    counters_[static_cast<size_t>(c)] += delta;
  }
  uint64_t counter(TraceCounter c) const { return counters_[static_cast<size_t>(c)]; }
  // Name-keyed snapshot of the counters, for reports and metrics snapshots.
  std::map<std::string, uint64_t> CounterSnapshot() const;

  // --- Aggregation --------------------------------------------------------

  // Running per-point totals: EndSpan adds a duration sample, Instant bumps
  // the count. Survives ring wraparound (it is not derived from the ring).
  // The metrics engine reads these (and the counters) when it snapshots, so
  // they are the one store behind its phase.* and event.* series.
  struct PointAgg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    Histogram dur_ns;
  };
  const PointAgg& agg(TracePoint p) const { return agg_[static_cast<size_t>(p)]; }
  // Same running totals for wait edges (count, blocked ns, histogram).
  const PointAgg& edge_agg(WaitEdge e) const { return edge_agg_[static_cast<size_t>(e)]; }
  // Clears aggregation and counters (benchmarks call this after warm-up).
  // The event ring and open-span stacks are left untouched.
  void ResetAggregation();

  // --- Sink ----------------------------------------------------------------

  // At most one sink; pass nullptr to detach. The sink sees every event in
  // append order, including those later overwritten in the ring.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  // --- Ring access ---------------------------------------------------------

  size_t ring_capacity() const { return ring_.size(); }
  // Events currently held (<= capacity).
  size_t size() const { return total_recorded_ < ring_.size() ? total_recorded_ : ring_.size(); }
  uint64_t total_recorded() const { return total_recorded_; }
  // Events lost to wraparound. TraceSink consumers (the profiler, tail
  // forensics) still saw them; ring-based exports did not.
  uint64_t overwritten() const {
    return total_recorded_ < ring_.size() ? 0 : total_recorded_ - ring_.size();
  }
  // i = 0 is the OLDEST retained event.
  const TraceEvent& event(size_t i) const;

  // Human-readable rendering of the newest |max_events| events (oldest
  // first) — the flight-recorder tail embedded in crash artifacts.
  std::vector<std::string> FormatTail(size_t max_events) const;

  // --- Tracks (for exporters) ----------------------------------------------

  size_t num_tracks() const { return tracks_.size(); }
  const std::string& track_name(uint32_t id) const { return tracks_[id]->name; }

  struct OpenSpan {
    TracePoint point = TracePoint::kNumPoints;
    uint64_t begin_ns = 0;
    uint64_t req_id = 0;
    uint64_t tx_id = 0;
    uint64_t arg0 = 0;
    uint16_t device = 0;
  };
  // Still-open spans, outer-to-inner per track, tracks in id order.
  std::vector<std::pair<uint32_t, OpenSpan>> OpenSpans() const;

  Simulator* sim() const { return sim_; }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  struct Track {
    uint32_t id = 0;
    std::string name;
    std::vector<OpenSpan> stack;
  };

  Track& CurrentTrack();
  void Append(const TraceEvent& ev);

  Simulator* sim_;
  std::vector<TraceEvent> ring_;
  uint64_t total_recorded_ = 0;

  // Actor -> track. The map is never iterated (iteration order would be
  // nondeterministic); export walks |tracks_| in id order.
  std::unordered_map<const Actor*, uint32_t> track_ids_;
  std::vector<std::unique_ptr<Track>> tracks_;

  uint64_t counters_[kNumTraceCounters] = {};
  std::vector<PointAgg> agg_;
  std::vector<PointAgg> edge_agg_;
  TraceSink* sink_ = nullptr;
};

// RAII span, tolerant of a null tracer (the common "tracing disabled" case)
// and exception-safe: SimShutdown unwinding closes spans in LIFO order.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, TracePoint point, uint64_t arg0 = 0)
      : tracer_(tracer), point_(point) {
    if (tracer_ != nullptr) tracer_->BeginSpan(point_, arg0);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(point_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  TracePoint point_;
};

}  // namespace ccnvme

#endif  // SRC_TRACE_TRACER_H_
