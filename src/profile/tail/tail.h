// Tail-latency forensics: the always-on layer that answers "why was THIS
// request 40x slower?" after the trace ring has long overwritten it.
//
// TailForensics is a CriticalPathProfiler::RequestObserver composing three
// pieces (attach alongside the what-if engine — the profiler fans its
// per-request profiles out to every registered observer):
//
//   * WindowedAggregator — streaming per-epoch blame vectors + histograms,
//     O(1) memory per window (src/profile/tail/windowed.h).
//   * ExemplarReservoir — bounded top-k outliers by end-to-end latency,
//     globally and per workload phase, each frozen with its complete span
//     tree, wait edges, counter/monitor snapshot and verdicts
//     (src/profile/tail/reservoir.h). The first global exemplar is the
//     slowest request of the run.
//   * Pathology signature classifier — every finished request matched
//     against the named bench/core_pathologies rules; per-signature counts
//     stream, verdicts ride captured exemplars
//     (src/profile/tail/signature.h).
//
// Whole-run totals (request count, total latency, per-key blame, the
// latency histogram) are read from the profiler this layer is attached to;
// nothing here keeps a second copy of them.
//
// The observer contract holds throughout: this layer never touches the
// Simulator, so a run with tail forensics attached is byte-identical in
// virtual time (proven by tests/tail_test.cc fingerprints).
//
// Surfaces: FormatTailReport (the `perf_report --tail` text — median-vs-
// p99.9 blame diff, per-signature counts, exemplar drill-down) and
// TailReportJson, the schema-versioned ccnvme-tail-v1 document
// ValidateTailReportJson / `metrics_report --check` validate.
#ifndef SRC_PROFILE_TAIL_TAIL_H_
#define SRC_PROFILE_TAIL_TAIL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/profile/report.h"
#include "src/profile/tail/reservoir.h"
#include "src/profile/tail/signature.h"
#include "src/profile/tail/windowed.h"

namespace ccnvme {

class Metrics;

struct TailOptions {
  WindowedOptions window;
  ReservoirOptions reservoir;
};

class TailForensics : public CriticalPathProfiler::RequestObserver {
 public:
  // Latency quantile that defines "the tail" for the blame-diff table.
  static constexpr double kTailQuantile = 0.999;

  explicit TailForensics(TailOptions options = {});

  // Registers as |profiler|'s request observer and reads its totals. Must
  // precede the first finished request.
  void Attach(CriticalPathProfiler* profiler);
  // Optional snapshot source frozen into captured exemplars.
  void set_metrics(const Metrics* metrics) { metrics_ = metrics; }

  // Labels requests finishing from now on (exemplars bucket per phase).
  void BeginPhase(const std::string& name) { phase_ = name; }
  const std::string& phase() const { return phase_; }

  // RequestObserver.
  void OnRequestProfile(const CriticalPathProfiler::RequestProfile& profile,
                        const std::vector<TraceEvent>& events) override;
  void OnResetAggregation() override;

  // --- Results --------------------------------------------------------------

  const WindowedAggregator& windows() const { return windows_; }
  const ExemplarReservoir& reservoir() const { return reservoir_; }
  // The attached profiler (CHECK-fails before Attach).
  const CriticalPathProfiler& profiler() const;
  uint64_t requests() const { return profiler().finished_requests(); }

  // Requests matching each pathology (streaming, over ALL requests, not
  // just captured exemplars). Index = Pathology enum value.
  const std::array<uint64_t, kNumPathologies>& signature_counts() const {
    return signature_counts_;
  }
  uint64_t total_signatures() const;

  // Latency at kTailQuantile over the profiler's latency
  // histogram — the "p99.9" boundary of the blame-diff table.
  uint64_t TailThresholdNs() const;

  // Median-vs-tail blame decomposition. The tail column aggregates the
  // captured global exemplars at/above TailThresholdNs() — each of whose
  // blame vectors sums exactly to its latency — so tail shares sum to 1
  // whenever any exemplar qualifies. One row per key that got blame
  // anywhere, ranked by tail share desc, then overall, then packed key.
  struct TailDiffRow {
    uint32_t packed_key = 0;
    uint64_t overall_ns = 0;
    double overall_share = 0.0;
    uint64_t tail_ns = 0;
    double tail_share = 0.0;
  };
  std::vector<TailDiffRow> TailDiff() const;
  // Exemplars the tail column aggregates (latency >= threshold).
  std::vector<const Exemplar*> TailExemplars() const;

 private:
  WindowedAggregator windows_;
  ExemplarReservoir reservoir_;
  std::array<uint64_t, kNumPathologies> signature_counts_{};
  uint64_t next_seq_ = 0;
  std::string phase_ = "main";
  const CriticalPathProfiler* profiler_ = nullptr;
  const Metrics* metrics_ = nullptr;
};

// --- Reports ----------------------------------------------------------------

// Schema identity of the machine-readable tail document below.
inline constexpr const char* kTailReportSchema = "ccnvme-tail-v1";
inline constexpr int kTailReportSchemaVersion = 1;

// The `perf_report --tail` text: headline quantiles, window summary,
// median-vs-p99.9 blame diff, per-signature counts and the exemplar
// drill-down (top outliers with blame vector + verdicts + critical path).
std::string FormatTailReport(const TailForensics& tail);

// One exemplar as a self-contained JSON object (everything the reservoir
// froze: profile, blame, critical path, raw events, counters, verdicts).
std::string ExemplarJson(const Exemplar& exemplar, bool pretty = true);

// Reconstructs an exemplar from a parsed ExemplarJson document (the
// round-trip tests/tail_test.cc asserts). On failure returns false with a
// one-line diagnostic in |error|.
bool ParseExemplarJson(const JsonValue& doc, Exemplar* out, std::string* error);

// The full ccnvme-tail-v1 document: schema header, workload echo, latency
// quantiles, profiler echo, window rows, blame diff, per-signature counts
// and embedded exemplars.
std::string TailReportJson(const TailForensics& tail, const PerfReportInfo& info,
                           bool pretty = true);

// Structural validation of a parsed ccnvme-tail-v1 document: schema match,
// profiler echo equals the document's own totals, overall blame shares sum
// to ~1, signature section names every registered pathology exactly once
// with its registry culprit, window rows bounded by the request count, and
// every exemplar's blame vector sums EXACTLY to its end-to-end latency. On
// failure returns false with a diagnostic.
bool ValidateTailReportJson(const JsonValue& doc, std::string* error);

}  // namespace ccnvme

#endif  // SRC_PROFILE_TAIL_TAIL_H_
