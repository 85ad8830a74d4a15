// Human-readable and machine-readable renderings of a
// CriticalPathProfiler's aggregates: the top-k blame table, per-phase blame
// histograms, the wait-edge DAG expansion ("where the 3% goes"), and a
// flame-style JSON dump for external viewers.
#ifndef SRC_PROFILE_REPORT_H_
#define SRC_PROFILE_REPORT_H_

#include <cstddef>
#include <string>

#include "src/profile/critical_path.h"
#include "src/profile/whatif.h"

namespace ccnvme {

struct BlameReportOptions {
  size_t top_k = 10;             // rows in the blame table
  size_t wait_detail_k = 5;      // sub-rows per expanded wait edge
  bool show_histograms = true;   // per-key blame distribution summaries
};

// Aggregate text report: total blame table (run + wait keys, descending),
// each wait edge expanded into its causal sub-attribution, and optional
// per-key histograms. The slowest request's critical path is the tail
// layer's first exemplar (FormatTailReport).
std::string FormatBlameReport(const CriticalPathProfiler& profiler,
                              const BlameReportOptions& options = {});

// Flame-style JSON: {"name":"root","value":<total ns>,"children":[
//   {"name":"<key>","value":ns,"children":[... wait detail ...]}]}
// Deterministic ordering (descending value, then packed key).
std::string FlameJson(const CriticalPathProfiler& profiler, bool pretty = true);

// One line naming the dominant critical-path contributor, e.g.
//   "dominant: wait.commit_barrier (41.3% of 12345678 ns total latency)"
std::string FormatDominantLine(const CriticalPathProfiler& profiler);

// The optimization frontier: every registered wait edge ranked by predicted
// causal gain, with its blame share beside the virtual-speedup curve so the
// divergence ("blame says 28%, causal re-simulation says 3%") is the point
// of the table. One row per edge in AllWaitEdges(), frontier order.
std::string FormatFrontierTable(const WhatIfEngine& engine);

// Single-edge virtual-speedup curve, one line per factor.
std::string FormatWhatIfCurve(const WhatIfEngine& engine, WaitEdge edge);

// Mean-vs-tail blame attribution ("which key dominates the p99, not just
// the average").
std::string FormatTailAttribution(const WhatIfEngine& engine, double quantile = 0.99);

// Schema identity of the machine-readable perf_report document below.
inline constexpr const char* kPerfReportSchema = "ccnvme-perf-v1";
inline constexpr int kPerfReportSchemaVersion = 1;

struct PerfReportInfo {
  std::string stack;  // "mqfs" | "nvlog"
  std::string mode;   // "fsync" | "fatomic"
  int iters = 0;
  int warmup = 0;
  int threads = 0;
  int queues = 0;
};

// The full machine-readable perf_report document: schema header, workload
// echo, latency summary, blame table, and — when |engine| is non-null — the
// what-if frontier + tail attribution. Validated by `metrics_report
// --check` (schema known, frontier covers every registered edge, curves
// monotone in f).
std::string PerfReportJson(const CriticalPathProfiler& profiler, const WhatIfEngine* engine,
                           const PerfReportInfo& info, bool pretty = true);

struct JsonValue;

// Structural validation of a parsed ccnvme-perf-v1 document: schema_version
// matches, requests > 0, blame shares sum to ~1, and — when the whatif
// section is present — the frontier names every registered wait edge
// exactly once, every curve is monotone (predicted mean non-decreasing in
// f, gains within [0,1] and non-increasing in f) and max_gain equals the
// most aggressive curve point. On failure returns false with a one-line
// diagnostic in |error|.
bool ValidatePerfReportJson(const JsonValue& doc, std::string* error);

}  // namespace ccnvme

#endif  // SRC_PROFILE_REPORT_H_
