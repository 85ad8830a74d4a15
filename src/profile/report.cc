#include "src/profile/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/common/json.h"

namespace ccnvme {
namespace {

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

std::string Row(const char* name, uint64_t ns, uint64_t total, uint64_t requests) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %14llu ns  %6.2f%%  (%llu reqs)\n", name,
                static_cast<unsigned long long>(ns), Pct(ns, total),
                static_cast<unsigned long long>(requests));
  return buf;
}

// Sorted (descending ns, ascending packed key) view of a detail map.
std::vector<std::pair<uint32_t, uint64_t>> SortedDetail(
    const std::map<uint32_t, uint64_t>& detail) {
  std::vector<std::pair<uint32_t, uint64_t>> rows(detail.begin(), detail.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return rows;
}

}  // namespace

std::string FormatDominantLine(const CriticalPathProfiler& profiler) {
  std::ostringstream os;
  if (profiler.finished_requests() == 0) {
    os << "dominant: (no finished requests)";
    return os.str();
  }
  const BlameKey key = profiler.DominantKey();
  const auto& blame = profiler.blame();
  uint64_t ns = 0;
  auto it = blame.find(key.packed());
  if (it != blame.end()) ns = it->second.total_ns;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "dominant: %s (%.1f%% of %llu ns total latency, %llu requests)",
                key.name(), Pct(ns, profiler.total_latency_ns()),
                static_cast<unsigned long long>(profiler.total_latency_ns()),
                static_cast<unsigned long long>(profiler.finished_requests()));
  os << buf;
  return os.str();
}

std::string FormatBlameReport(const CriticalPathProfiler& profiler,
                              const BlameReportOptions& options) {
  std::ostringstream os;
  const uint64_t total = profiler.total_latency_ns();
  os << "=== critical-path blame report ===\n";
  os << "requests: " << profiler.finished_requests() << "  total latency: " << total
     << " ns";
  if (profiler.finished_requests() > 0) {
    os << "  mean: "
       << total / profiler.finished_requests() << " ns";
  }
  os << "\n";
  if (profiler.finished_requests() == 0) {
    return os.str();
  }
  os << FormatDominantLine(profiler) << "\n";

  os << "\n-- top blame keys --\n";
  const auto& blame = profiler.blame();
  for (const auto& [key, ns] : profiler.TopKeys(options.top_k)) {
    uint64_t requests = 0;
    auto it = blame.find(key.packed());
    if (it != blame.end()) requests = it->second.requests;
    os << Row(key.name(), ns, total, requests);
  }

  const auto& detail = profiler.wait_detail();
  if (!detail.empty()) {
    os << "\n-- wait-edge expansion (what the blocked time was spent on) --\n";
    for (const auto& [wait_packed, ns] : profiler.TopWaitEdges(options.top_k)) {
      os << "  " << BlameKey::FromPacked(wait_packed.packed()).name() << " = " << ns
         << " ns\n";
      auto dit = detail.find(wait_packed.packed());
      if (dit == detail.end()) continue;
      size_t shown = 0;
      for (const auto& [sub_packed, sub_ns] : SortedDetail(dit->second)) {
        if (shown++ >= options.wait_detail_k) break;
        char buf[160];
        std::snprintf(buf, sizeof(buf), "    -> %-26s %14llu ns  %6.2f%%\n",
                      BlameKey::FromPacked(sub_packed).name(),
                      static_cast<unsigned long long>(sub_ns), Pct(sub_ns, ns));
        os << buf;
      }
    }
  }

  if (options.show_histograms) {
    os << "\n-- per-request blame distribution --\n";
    for (const auto& [key, ns] : profiler.TopKeys(options.top_k)) {
      (void)ns;
      auto it = blame.find(key.packed());
      if (it == blame.end()) continue;
      os << "  " << key.name() << ": " << it->second.per_request_ns.Summary() << "\n";
    }
    os << "  latency: " << profiler.latency_ns().Summary() << "\n";
  }
  return os.str();
}

std::string FormatWhatIfCurve(const WhatIfEngine& engine, WaitEdge edge) {
  std::ostringstream os;
  os << "what-if " << WaitEdgeName(edge) << " (" << engine.requests()
     << " requests, baseline mean " << engine.baseline_mean_ns() << " ns, p99 "
     << engine.BaselineQuantileNs(0.99) << " ns)\n";
  for (double f : WhatIfEngine::kFactors) {
    const WhatIfEngine::Prediction p = engine.Predict(edge, f);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  f=%.2f  predicted mean %10llu ns  gain %6.2f%%  speedup %5.3fx  "
                  "p99 %10llu ns  tail gain %6.2f%%\n",
                  f,
                  static_cast<unsigned long long>(
                      p.requests == 0 ? 0 : p.predicted_total_ns / p.requests),
                  100.0 * p.mean_gain(), p.speedup(),
                  static_cast<unsigned long long>(p.predicted_p99_ns),
                  100.0 * p.tail_gain());
    os << buf;
  }
  return os.str();
}

std::string FormatFrontierTable(const WhatIfEngine& engine) {
  std::ostringstream os;
  os << "=== optimization frontier (virtual speedup per wait edge) ===\n";
  os << "requests: " << engine.requests() << "  baseline mean: " << engine.baseline_mean_ns()
     << " ns  p99: " << engine.BaselineQuantileNs(0.99) << " ns\n";
  const auto& factors = WhatIfEngine::kFactors;
  {
    std::ostringstream head;
    head << "  " << std::left;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%-24s %8s", "edge", "blame%");
    head << buf;
    for (double f : factors) {
      std::snprintf(buf, sizeof(buf), "  gain@f=%.2f", f);
      head << buf;
    }
    os << head.str() << "  tail-gain@f=" << factors.front() << "\n";
  }
  for (const WhatIfEngine::FrontierRow& row : engine.Frontier()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  %-24s %7.2f%%", WaitEdgeName(row.edge),
                  100.0 * row.blame_share);
    os << buf;
    for (const WhatIfEngine::Prediction& p : row.curve) {
      std::snprintf(buf, sizeof(buf), "  %10.2f%%", 100.0 * p.mean_gain());
      os << buf;
    }
    std::snprintf(buf, sizeof(buf), "  %12.2f%%\n",
                  row.curve.empty() ? 0.0 : 100.0 * row.curve.front().tail_gain());
    os << buf;
  }
  return os.str();
}

std::string FormatTailAttribution(const WhatIfEngine& engine, double quantile) {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "-- tail-conditioned attribution (p%02.0f blame vector vs mean) --\n",
                100.0 * quantile);
  os << buf;
  for (const WhatIfEngine::TailRow& row : engine.TailAttribution(quantile)) {
    std::snprintf(buf, sizeof(buf), "  %-28s mean %6.2f%%   tail %6.2f%%   %+6.2f%%\n",
                  BlameKey::FromPacked(row.packed_key).name(), 100.0 * row.mean_share,
                  100.0 * row.tail_share, 100.0 * (row.tail_share - row.mean_share));
    os << buf;
  }
  return os.str();
}

std::string PerfReportJson(const CriticalPathProfiler& profiler, const WhatIfEngine* engine,
                           const PerfReportInfo& info, bool pretty) {
  JsonWriter w(pretty);
  w.Open('{');
  w.Key("schema", true);
  w.String(kPerfReportSchema);
  w.Key("schema_version", false);
  w.os << kPerfReportSchemaVersion;
  w.Key("workload", false);
  w.Open('{');
  w.Key("stack", true);
  w.String(info.stack);
  w.Key("mode", false);
  w.String(info.mode);
  w.Key("iters", false);
  w.os << info.iters;
  w.Key("warmup", false);
  w.os << info.warmup;
  w.Key("threads", false);
  w.os << info.threads;
  w.Key("queues", false);
  w.os << info.queues;
  w.Close('}');
  w.Key("requests", false);
  w.os << profiler.finished_requests();
  w.Key("total_latency_ns", false);
  w.os << profiler.total_latency_ns();
  w.Key("mean_ns", false);
  w.os << (profiler.finished_requests() == 0
               ? 0
               : profiler.total_latency_ns() / profiler.finished_requests());
  w.Key("blame", false);
  w.Open('[');
  bool first = true;
  for (const auto& [key, ns] : profiler.TopKeys(profiler.blame().size())) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("key", true);
    w.String(key.name());
    w.Key("total_ns", false);
    w.os << ns;
    w.Key("share", false);
    w.os << Pct(ns, profiler.total_latency_ns()) / 100.0;
    w.Close('}');
    first = false;
  }
  w.Close(']');

  if (engine != nullptr) {
    w.Key("whatif", false);
    w.Open('{');
    w.Key("requests", true);
    w.os << engine->requests();
    w.Key("baseline_mean_ns", false);
    w.os << engine->baseline_mean_ns();
    w.Key("baseline_p99_ns", false);
    w.os << engine->BaselineQuantileNs(0.99);
    w.Key("factors", false);
    w.Open('[');
    first = true;
    for (double f : WhatIfEngine::kFactors) {
      if (!first) w.os << ',';
      w.os << f;
      first = false;
    }
    w.Close(']');
    w.Key("frontier", false);
    w.Open('[');
    first = true;
    for (const WhatIfEngine::FrontierRow& row : engine->Frontier()) {
      if (!first) w.os << ',';
      w.NewlineIndent();
      w.Open('{');
      w.Key("edge", true);
      w.String(WaitEdgeName(row.edge));
      w.Key("blame_ns", false);
      w.os << row.blame_ns;
      w.Key("blame_share", false);
      w.os << row.blame_share;
      // Per-request blame distribution of this edge, so the what-if curve
      // can be read against TAIL blame, not just the mean: an edge with a
      // modest mean share but a fat p99.9 is a tail lever.
      {
        const auto bit = profiler.blame().find(BlameKey::Wait(row.edge).packed());
        const Histogram* h =
            bit == profiler.blame().end() ? nullptr : &bit->second.per_request_ns;
        w.Key("blame_mean_ns", false);
        w.os << (h == nullptr || h->count() == 0
                     ? 0
                     : static_cast<uint64_t>(h->Mean()));
        w.Key("blame_p99_ns", false);
        w.os << (h == nullptr ? 0 : h->Percentile(0.99));
        w.Key("blame_p999_ns", false);
        w.os << (h == nullptr ? 0 : h->Percentile(0.999));
      }
      w.Key("max_gain", false);
      w.os << row.max_gain();
      w.Key("curve", false);
      w.Open('[');
      bool cfirst = true;
      for (const WhatIfEngine::Prediction& p : row.curve) {
        if (!cfirst) w.os << ',';
        w.NewlineIndent();
        w.Open('{');
        w.Key("factor", true);
        w.os << p.factor;
        w.Key("predicted_mean_ns", false);
        w.os << (p.requests == 0 ? 0 : p.predicted_total_ns / p.requests);
        w.Key("predicted_p99_ns", false);
        w.os << p.predicted_p99_ns;
        w.Key("gain", false);
        w.os << p.mean_gain();
        w.Key("tail_gain", false);
        w.os << p.tail_gain();
        w.Close('}');
        cfirst = false;
      }
      w.Close(']');
      w.Close('}');
      first = false;
    }
    w.Close(']');
    w.Key("tail", false);
    w.Open('[');
    first = true;
    for (const WhatIfEngine::TailRow& row : engine->TailAttribution(0.99)) {
      if (!first) w.os << ',';
      w.NewlineIndent();
      w.Open('{');
      w.Key("key", true);
      w.String(BlameKey::FromPacked(row.packed_key).name());
      w.Key("mean_share", false);
      w.os << row.mean_share;
      w.Key("tail_share", false);
      w.os << row.tail_share;
      w.Close('}');
      first = false;
    }
    w.Close(']');
    w.Close('}');
  }
  w.Close('}');
  if (pretty) w.os << '\n';
  return w.os.str();
}

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool ValidatePerfReportJson(const JsonValue& doc, std::string* error) {
  constexpr double kEps = 1e-6;
  if (doc.type != JsonValue::Type::kObject) {
    return Fail(error, "perf document is not a JSON object");
  }
  if (doc.Str("schema") != kPerfReportSchema) {
    return Fail(error, "unknown schema '" + doc.Str("schema") + "'");
  }
  if (doc.U64("schema_version") != static_cast<uint64_t>(kPerfReportSchemaVersion)) {
    return Fail(error, "schema_version " + std::to_string(doc.U64("schema_version")) +
                           " != " + std::to_string(kPerfReportSchemaVersion));
  }
  if (doc.U64("requests") == 0) {
    return Fail(error, "requests == 0 (empty profile)");
  }
  const JsonValue* blame = doc.Find("blame");
  if (blame == nullptr || blame->type != JsonValue::Type::kArray || blame->arr.empty()) {
    return Fail(error, "missing/empty blame array");
  }
  double share_sum = 0.0;
  for (const JsonValue& row : blame->arr) {
    const double share = row.Num("share", -1.0);
    if (share < -kEps || share > 1.0 + kEps) {
      return Fail(error, "blame share out of [0,1] for '" + row.Str("key") + "'");
    }
    share_sum += share;
  }
  // Every ns of every request window is attributed to exactly one key.
  if (share_sum < 1.0 - 1e-3 || share_sum > 1.0 + 1e-3) {
    return Fail(error, "blame shares sum to " + std::to_string(share_sum) + ", want 1");
  }

  const JsonValue* whatif = doc.Find("whatif");
  if (whatif == nullptr) {
    return true;  // blame-only document — valid without the frontier
  }
  if (whatif->type != JsonValue::Type::kObject) {
    return Fail(error, "whatif is not an object");
  }
  if (whatif->U64("requests") == 0) {
    return Fail(error, "whatif.requests == 0");
  }
  const JsonValue* factors = whatif->Find("factors");
  if (factors == nullptr || factors->type != JsonValue::Type::kArray || factors->arr.empty()) {
    return Fail(error, "missing/empty whatif.factors");
  }
  const JsonValue* frontier = whatif->Find("frontier");
  if (frontier == nullptr || frontier->type != JsonValue::Type::kArray) {
    return Fail(error, "missing whatif.frontier");
  }
  // The frontier must name every registered wait edge exactly once.
  std::map<std::string, int> seen;
  for (const JsonValue& row : frontier->arr) {
    const std::string name = row.Str("edge");
    if (WaitEdgeFromName(name) == WaitEdge::kNumEdges) {
      return Fail(error, "frontier names unregistered edge '" + name + "'");
    }
    if (++seen[name] > 1) {
      return Fail(error, "frontier names edge '" + name + "' twice");
    }
    // Per-edge tail blame columns: present, non-negative, p99 <= p99.9.
    const double blame_mean = row.Num("blame_mean_ns", -1.0);
    const double blame_p99 = row.Num("blame_p99_ns", -1.0);
    const double blame_p999 = row.Num("blame_p999_ns", -1.0);
    if (blame_mean < 0 || blame_p99 < 0 || blame_p999 < 0) {
      return Fail(error, "edge '" + name + "': missing/negative blame percentile fields");
    }
    if (blame_p99 > blame_p999 + kEps) {
      return Fail(error, "edge '" + name + "': blame_p99_ns > blame_p999_ns");
    }
    const JsonValue* curve = row.Find("curve");
    if (curve == nullptr || curve->type != JsonValue::Type::kArray ||
        curve->arr.size() != factors->arr.size()) {
      return Fail(error, "edge '" + name + "': curve does not cover the factors");
    }
    double prev_factor = -1.0;
    double prev_mean = -1.0;
    double prev_gain = 2.0;
    for (const JsonValue& p : curve->arr) {
      const double f = p.Num("factor", -1.0);
      const double mean = p.Num("predicted_mean_ns", -1.0);
      const double gain = p.Num("gain", -1.0);
      if (f < prev_factor - kEps) {
        return Fail(error, "edge '" + name + "': curve factors not ascending");
      }
      if (mean < prev_mean - kEps) {
        return Fail(error,
                    "edge '" + name + "': predicted mean not monotone in the factor");
      }
      if (gain < -kEps || gain > 1.0 + kEps || gain > prev_gain + kEps) {
        return Fail(error, "edge '" + name + "': gain outside [0,1] or not monotone");
      }
      prev_factor = f;
      prev_mean = mean;
      prev_gain = gain;
    }
    const double max_gain = row.Num("max_gain", -1.0);
    const double front_gain = curve->arr.front().Num("gain", -2.0);
    if (max_gain < front_gain - kEps || max_gain > front_gain + kEps) {
      return Fail(error, "edge '" + name + "': max_gain != most aggressive curve point");
    }
  }
  if (seen.size() != kNumWaitEdges) {
    return Fail(error, "frontier covers " + std::to_string(seen.size()) + " of " +
                           std::to_string(kNumWaitEdges) + " registered edges");
  }
  const JsonValue* tail = whatif->Find("tail");
  if (tail == nullptr || tail->type != JsonValue::Type::kArray) {
    return Fail(error, "missing whatif.tail");
  }
  for (const JsonValue& row : tail->arr) {
    const double mean_share = row.Num("mean_share", -1.0);
    const double tail_share = row.Num("tail_share", -1.0);
    if (mean_share < -kEps || mean_share > 1.0 + kEps || tail_share < -kEps ||
        tail_share > 1.0 + kEps) {
      return Fail(error, "tail share out of [0,1] for '" + row.Str("key") + "'");
    }
  }
  return true;
}

std::string FlameJson(const CriticalPathProfiler& profiler, bool pretty) {
  JsonWriter w(pretty);
  w.Open('{');
  w.Key("name", true);
  w.String("root");
  w.Key("value", false);
  w.os << profiler.total_latency_ns();
  w.Key("requests", false);
  w.os << profiler.finished_requests();
  w.Key("children", false);
  w.Open('[');
  const auto& detail = profiler.wait_detail();
  bool first = true;
  for (const auto& [key, ns] : profiler.TopKeys(profiler.blame().size())) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("name", true);
    w.String(key.name());
    w.Key("value", false);
    w.os << ns;
    auto dit = detail.find(key.packed());
    if (dit != detail.end() && !dit->second.empty()) {
      w.Key("children", false);
      w.Open('[');
      bool sub_first = true;
      for (const auto& [sub_packed, sub_ns] : SortedDetail(dit->second)) {
        if (!sub_first) w.os << ',';
        w.NewlineIndent();
        w.Open('{');
        w.Key("name", true);
        w.String(BlameKey::FromPacked(sub_packed).name());
        w.Key("value", false);
        w.os << sub_ns;
        w.Close('}');
        sub_first = false;
      }
      w.Close(']');
    }
    w.Close('}');
    first = false;
  }
  w.Close(']');
  w.Close('}');
  if (pretty) w.os << '\n';
  return w.os.str();
}

}  // namespace ccnvme
