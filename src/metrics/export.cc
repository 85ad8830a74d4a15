#include "src/metrics/export.h"

#include <cstdio>
#include <sstream>

#include "src/common/json.h"

namespace ccnvme {

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted names map
// onto that by rewriting everything else to '_'.
std::string PromName(const std::string& name) {
  std::string out = "ccnvme_";
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

void EmitHistogram(JsonWriter* w, const Histogram& h) {
  w->Open('{');
  w->Key("count", true);
  w->os << h.count();
  w->Key("sum", false);
  w->os << h.sum();
  w->Key("min", false);
  w->os << h.min();
  w->Key("max", false);
  w->os << h.max();
  w->Key("mean", false);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", h.Mean());
  w->os << buf;
  w->Key("p50", false);
  w->os << h.Percentile(0.5);
  w->Key("p90", false);
  w->os << h.Percentile(0.9);
  w->Key("p99", false);
  w->os << h.Percentile(0.99);
  w->Key("p999", false);
  w->os << h.Percentile(0.999);
  w->Close('}');
}

}  // namespace

std::string ExportJson(const MetricsSnapshot& snap, bool pretty) {
  JsonWriter w(pretty);
  w.Open('{');
  w.Key("taken_at_ns", true);
  w.os << snap.taken_at_ns;

  w.Key("counters", false);
  w.Open('{');
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    w.Key(name, first);
    w.os << value;
    first = false;
  }
  w.Close('}');

  w.Key("gauges", false);
  w.Open('{');
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    w.Key(name, first);
    w.os << value;
    first = false;
  }
  w.Close('}');

  w.Key("histograms", false);
  w.Open('{');
  first = true;
  for (const auto& [name, histo] : snap.histograms) {
    w.Key(name, first);
    EmitHistogram(&w, histo);
    first = false;
  }
  w.Close('}');

  w.Key("monitors", false);
  w.Open('{');
  first = true;
  for (const auto& [name, stat] : snap.monitors) {
    w.Key(name, first);
    w.Open('{');
    w.Key("violations", true);
    w.os << stat.violations;
    w.Key("first_ns", false);
    w.os << stat.first_ns;
    w.Key("last_ns", false);
    w.os << stat.last_ns;
    w.Key("detail", false);
    w.os << '"' << JsonEscape(stat.detail) << '"';
    w.Close('}');
    first = false;
  }
  w.Close('}');

  w.Close('}');
  if (pretty) {
    w.os << '\n';
  }
  return w.os.str();
}

std::string ExportPrometheusText(const SnapshotStats& snap) {
  std::ostringstream os;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " gauge\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " summary\n";
    os << prom << "{quantile=\"0.5\"} " << h.p50 << "\n";
    os << prom << "{quantile=\"0.9\"} " << h.p90 << "\n";
    os << prom << "{quantile=\"0.99\"} " << h.p99 << "\n";
    os << prom << "{quantile=\"0.999\"} " << h.p999 << "\n";
    os << prom << "_sum " << h.sum << "\n";
    os << prom << "_count " << h.count << "\n";
  }
  os << "# TYPE ccnvme_monitor_violations_total counter\n";
  for (const auto& [name, stat] : snap.monitors) {
    os << "ccnvme_monitor_violations_total{monitor=\"" << name << "\"} "
       << stat.violations << "\n";
  }
  return os.str();
}

bool WriteSnapshotJson(const MetricsSnapshot& snap, const std::string& path) {
  const std::string json = ExportJson(snap, /*pretty=*/true);
  if (path.empty() || path == "-") {
    std::fputs(json.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

uint64_t SnapshotStats::TotalViolations() const {
  uint64_t total = 0;
  for (const auto& [name, stat] : monitors) {
    total += stat.violations;
  }
  return total;
}

bool ParseSnapshotJson(const std::string& text, SnapshotStats* out, std::string* error) {
  JsonValue root;
  if (!JsonParse(text, &root, error)) {
    return false;
  }
  if (root.type != JsonValue::Type::kObject) {
    if (error != nullptr) {
      *error = "snapshot is not a JSON object";
    }
    return false;
  }
  *out = SnapshotStats{};
  out->taken_at_ns = root.U64("taken_at_ns");
  if (const JsonValue* counters = root.Find("counters")) {
    for (const auto& [name, v] : counters->obj) {
      out->counters.emplace(name, static_cast<uint64_t>(v.num));
    }
  }
  if (const JsonValue* gauges = root.Find("gauges")) {
    for (const auto& [name, v] : gauges->obj) {
      out->gauges.emplace(name, static_cast<int64_t>(v.num));
    }
  }
  if (const JsonValue* histos = root.Find("histograms")) {
    for (const auto& [name, v] : histos->obj) {
      HistogramStat h;
      h.count = v.U64("count");
      h.sum = v.U64("sum");
      h.min = v.U64("min");
      h.max = v.U64("max");
      h.mean = v.Num("mean");
      h.p50 = v.U64("p50");
      h.p90 = v.U64("p90");
      h.p99 = v.U64("p99");
      h.p999 = v.U64("p999");
      out->histograms.emplace(name, h);
    }
  }
  if (const JsonValue* monitors = root.Find("monitors")) {
    for (const auto& [name, v] : monitors->obj) {
      MonitorStat m;
      m.violations = v.U64("violations");
      m.first_ns = v.U64("first_ns");
      m.last_ns = v.U64("last_ns");
      if (const JsonValue* detail = v.Find("detail")) {
        m.detail = detail->str;
      }
      out->monitors.emplace(name, std::move(m));
    }
  }
  return true;
}

bool ParseSnapshotFile(const std::string& text, std::vector<SnapshotStats>* out,
                       std::string* error) {
  out->clear();
  SnapshotStats whole;
  if (ParseSnapshotJson(text, &whole, nullptr)) {
    out->push_back(std::move(whole));
    return true;
  }
  // JSONL: one compact snapshot per non-empty line.
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    SnapshotStats snap;
    if (!ParseSnapshotJson(line, &snap, error)) {
      return false;
    }
    out->push_back(std::move(snap));
  }
  if (out->empty()) {
    if (error != nullptr) {
      *error = "no snapshots found";
    }
    return false;
  }
  return true;
}

}  // namespace ccnvme
