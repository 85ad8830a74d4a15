// Snapshot exporters + the parser tools/metrics_report uses to read dumps.
//
// Two wire formats:
//  - JSON, from a live MetricsSnapshot: full structured dump (counters,
//    gauges, histogram summary stats, monitor violations). StorageStack
//    appends one compact line per run when CCNVME_METRICS is set, so a bench
//    sweep yields a JSONL file.
//  - Prometheus text exposition, from a parsed JSON dump: counters, gauges,
//    summary-style quantiles and ccnvme_monitor_violations_total{monitor=
//    "..."} series. Metric names have dots rewritten to underscores and a
//    "ccnvme_" prefix.
#ifndef SRC_METRICS_EXPORT_H_
#define SRC_METRICS_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"

namespace ccnvme {

// |pretty| = indented multi-line; false = one compact line (JSONL-friendly).
std::string ExportJson(const MetricsSnapshot& snap, bool pretty = true);

// Writes |snap| as pretty JSON to |path| (empty or "-" = stdout). Returns
// false on I/O error. Shared by the --metrics[=path] CLI flags.
bool WriteSnapshotJson(const MetricsSnapshot& snap, const std::string& path);

// Flat histogram summary as serialized (buckets are not exported; the
// summary stats are what reports diff and display).
struct HistogramStat {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

// Parsed form of one exported JSON snapshot.
struct SnapshotStats {
  uint64_t taken_at_ns = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStat> histograms;
  std::map<std::string, MonitorStat> monitors;

  uint64_t TotalViolations() const;
};

// Renders a parsed snapshot as Prometheus text, with quantiles taken from
// the serialized summary stats (tools/metrics_report --prom).
std::string ExportPrometheusText(const SnapshotStats& snap);

// Parses one JSON snapshot (as produced by ExportJson). Returns false and
// sets |error| on malformed input.
bool ParseSnapshotJson(const std::string& text, SnapshotStats* out, std::string* error);

// Parses a file's worth of snapshots: a single JSON document or JSONL (one
// compact snapshot per line, as the CCNVME_METRICS auto-dump appends).
bool ParseSnapshotFile(const std::string& text, std::vector<SnapshotStats>* out,
                       std::string* error);

}  // namespace ccnvme

#endif  // SRC_METRICS_EXPORT_H_
