#include "src/metrics/metrics.h"

#include <algorithm>

#include "src/trace/tracer.h"

namespace ccnvme {

template <typename V>
MetricsRegistry::Handle MetricsRegistry::InternInto(
    std::vector<Slot<V>>* slots, std::map<std::string, Handle>* index,
    const std::string& name) {
  auto [it, inserted] = index->try_emplace(name, static_cast<Handle>(slots->size()));
  if (inserted) {
    slots->push_back(Slot<V>{name, V{}});
  }
  return it->second;
}

MetricsRegistry::Handle MetricsRegistry::Counter(const std::string& name) {
  return InternInto(&counters_, &counter_index_, name);
}

MetricsRegistry::Handle MetricsRegistry::Gauge(const std::string& name) {
  return InternInto(&gauges_, &gauge_index_, name);
}

MetricsRegistry::Handle MetricsRegistry::Histo(const std::string& name) {
  return InternInto(&histos_, &histo_index_, name);
}

void MetricsRegistry::ResetValues() {
  for (auto& slot : counters_) {
    slot.value = 0;
  }
  for (auto& slot : gauges_) {
    slot.value = 0;
  }
  for (auto& slot : histos_) {
    slot.value.Reset();
  }
}

std::map<std::string, uint64_t> MetricsRegistry::CounterView() const {
  std::map<std::string, uint64_t> out;
  for (const auto& slot : counters_) {
    out.emplace(slot.name, slot.value);
  }
  return out;
}

std::map<std::string, int64_t> MetricsRegistry::GaugeView() const {
  std::map<std::string, int64_t> out;
  for (const auto& slot : gauges_) {
    out.emplace(slot.name, slot.value);
  }
  return out;
}

std::map<std::string, Histogram> MetricsRegistry::HistoView() const {
  std::map<std::string, Histogram> out;
  for (const auto& slot : histos_) {
    out.emplace(slot.name, slot.value);
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  out.taken_at_ns = taken_at_ns;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    const uint64_t base = it == earlier.counters.end() ? 0 : it->second;
    out.counters.emplace(name, value > base ? value - base : 0);
  }
  out.gauges = gauges;
  for (const auto& [name, histo] : histograms) {
    auto it = earlier.histograms.find(name);
    out.histograms.emplace(
        name, it == earlier.histograms.end() ? histo : histo.DiffSince(it->second));
  }
  out.monitors = monitors;
  return out;
}

uint64_t MetricsSnapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const Histogram* MetricsSnapshot::Histo(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

uint64_t MetricsSnapshot::TotalViolations() const {
  uint64_t total = 0;
  for (const auto& [name, stat] : monitors) {
    total += stat.violations;
  }
  return total;
}

Metrics::Metrics(Simulator* sim)
    : sim_(sim), monitors_(std::make_unique<InvariantMonitors>(sim)) {}

Metrics::~Metrics() = default;

MetricsSnapshot Metrics::TakeSnapshot() const {
  MetricsSnapshot snap;
  snap.taken_at_ns = sim_->now();
  snap.counters = registry_.CounterView();
  snap.gauges = registry_.GaugeView();
  snap.histograms = registry_.HistoView();
  if (const Tracer* tracer = sim_->tracer()) {
    for (size_t i = 0; i < kNumTracePoints; ++i) {
      const TracePoint p = static_cast<TracePoint>(i);
      const Tracer::PointAgg& agg = tracer->agg(p);
      snap.histograms[std::string("phase.") + TracePointName(p)] = agg.dur_ns;
      // agg.count counts spans and instants; dur_ns holds the spans only.
      snap.counters[std::string("event.") + TracePointName(p)] =
          agg.count - agg.dur_ns.count();
    }
    for (const auto& [name, value] : tracer->CounterSnapshot()) {
      snap.counters[name] = value;
    }
  }
  for (size_t i = 0; i < kNumMonitors; ++i) {
    const MonitorId id = static_cast<MonitorId>(i);
    MonitorStat stat;
    stat.violations = monitors_->violations(id);
    stat.first_ns = monitors_->first_violation_ns(id);
    stat.last_ns = monitors_->last_violation_ns(id);
    stat.detail = monitors_->last_detail(id);
    snap.monitors.emplace(MonitorName(id), std::move(stat));
  }
  return snap;
}

void Metrics::ResetAggregation() { registry_.ResetValues(); }

}  // namespace ccnvme
