// Live metrics engine: interned counters/gauges/histograms, snapshot/delta
// semantics, per-request phase attribution, and the invariant monitors.
//
// The engine attaches to the Simulator exactly like the tracer
// (sim->set_metrics(&m)); instrumented components query sim->metrics() and
// skip all work when it is null. Determinism contract: every hot path is
// handle-indexed array arithmetic — no allocation, no simulator calls other
// than now(), no I/O — so enabling metrics provably changes no virtual
// timestamps (tests/metrics_test.cc fingerprints a run both ways).
//
// Phase attribution is read, not copied: TakeSnapshot fills "phase.<p>"
// (span durations), "event.<p>" (instant counts) and the pcie.* traffic
// counters from the simulator's tracer, the one store those aggregates
// live in. Benches that used to keep bespoke aggregations (fig14, table1)
// read a MetricsSnapshot.
#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/metrics/monitors.h"

namespace ccnvme {

// Interned-handle metric store. Names are hashed exactly once, at Intern
// time (setup); hot paths index arrays through the returned handles.
class MetricsRegistry {
 public:
  using Handle = uint32_t;

  // Idempotent: interning an existing name returns its handle.
  Handle Counter(const std::string& name);
  Handle Gauge(const std::string& name);
  Handle Histo(const std::string& name);

  void Add(Handle h, uint64_t delta = 1) { counters_[h].value += delta; }
  void GaugeSet(Handle h, int64_t value) { gauges_[h].value = value; }
  void GaugeAdd(Handle h, int64_t delta) { gauges_[h].value += delta; }
  void Observe(Handle h, uint64_t value) { histos_[h].value.Add(value); }

  uint64_t counter(Handle h) const { return counters_[h].value; }
  int64_t gauge(Handle h) const { return gauges_[h].value; }
  const Histogram& histo(Handle h) const { return histos_[h].value; }

  // Zeroes every value but keeps all interned slots (handles stay valid).
  void ResetValues();

  // Name-keyed views for snapshotting (cold path).
  std::map<std::string, uint64_t> CounterView() const;
  std::map<std::string, int64_t> GaugeView() const;
  std::map<std::string, Histogram> HistoView() const;

 private:
  template <typename V>
  struct Slot {
    std::string name;
    V value{};
  };
  template <typename V>
  static Handle InternInto(std::vector<Slot<V>>* slots,
                           std::map<std::string, Handle>* index,
                           const std::string& name);

  std::vector<Slot<uint64_t>> counters_;
  std::vector<Slot<int64_t>> gauges_;
  std::vector<Slot<Histogram>> histos_;
  std::map<std::string, Handle> counter_index_;
  std::map<std::string, Handle> gauge_index_;
  std::map<std::string, Handle> histo_index_;
};

// Per-monitor summary carried in snapshots and exports.
struct MonitorStat {
  uint64_t violations = 0;
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
  std::string detail;
};

// A point-in-time copy of every metric. Cheap enough to take repeatedly in
// benches; DeltaSince yields the interval view two snapshots bracket.
struct MetricsSnapshot {
  uint64_t taken_at_ns = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, MonitorStat> monitors;

  // Counters/histograms subtract (this - earlier, clamped at zero); gauges
  // and monitor stats keep this snapshot's values (they are levels, not
  // accumulations).
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  uint64_t Counter(const std::string& name) const;
  const Histogram* Histo(const std::string& name) const;
  uint64_t TotalViolations() const;
};

// Facade the rest of the stack talks to: owns the registry + monitors, and
// snapshots them together with the tracer's aggregates.
class Metrics {
 public:
  explicit Metrics(Simulator* sim);
  ~Metrics();

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  MetricsRegistry& registry() { return registry_; }
  InvariantMonitors& monitors() { return *monitors_; }
  const InvariantMonitors& monitors() const { return *monitors_; }

  // The registry and monitors, plus the tracer's phase.*, event.* and
  // pcie.* aggregates when the simulator has a tracer (one without, as in
  // the offline inspect tools, omits those series).
  MetricsSnapshot TakeSnapshot() const;

  // Clears the registry's values for steady-state measurement; the tracer's
  // aggregates are reset by Tracer::ResetAggregation. Monitor violation
  // state is deliberately kept: a violation during warmup is still a
  // violation.
  void ResetAggregation();

 private:
  Simulator* sim_;
  MetricsRegistry registry_;
  std::unique_ptr<InvariantMonitors> monitors_;
};

}  // namespace ccnvme

#endif  // SRC_METRICS_METRICS_H_
