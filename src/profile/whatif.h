// Causal what-if engine: virtual-speedup prediction over the wait-edge DAG.
//
// A blame percentage is not a speedup prediction — edges overlap, serialize
// behind shared releases, and shift blame to the next-innermost wait when
// removed. This engine replays the recorded per-request event stream (fed by
// the critical-path profiler's RequestObserver hook) and re-simulates each
// request with one wait-edge class scaled by a factor f in [0, 1],
// recomputing the end-to-end latency the request WOULD have had:
//
//   * Per target interval [b, R) of the scaled edge, the re-simulated
//     release is b + f*(R - b): the resource answers f times as slowly.
//   * Batched edges (compound-commit barriers, fan-out gates, ordering
//     epochs — see WaitEdgeBatched) release every member interval with ONE
//     shared event gated by the LAST joiner. All member intervals ending at
//     the same instant on the same device form a release group anchored at
//     the LATEST member's begin L: the group's release moves to
//     L + f*(R - L), and no member can be released before L no matter how
//     small f gets — shrinking a batch cannot outrun its last joiner.
//   * A nanosecond freed by the scaled edge is reclaimed only if nothing
//     else holds the request there: time still covered by ANY other wait
//     edge stays (the blame shifts to the next-innermost wait, exactly the
//     overlap structure the blame vector collapses). For non-blocking
//     edges (WaitEdgeBlocking == false: retroactive attributions like the
//     doorbell-coalescing window, under which the host kept running), time
//     covered by one of the request's own run spans stays too — the host's
//     work does not disappear because its results became visible earlier.
//   * Non-blocking edges additionally get a downstream device-pipeline
//     model, because their real payoff is causal, not local: ringing the
//     doorbell earlier lets the device start executing while the host is
//     still staging. For each blocking wait the request later spends parked
//     on the same device, the engine replays the scaled edge's releases
//     through a serial server whose per-item service time is calibrated so
//     the ORIGINAL release times land exactly on the observed completion
//     (f = 1 is a no-op by construction), shifts the wait's completion in
//     by the replayed difference, and reclaims the parked slack.
//
// On synthetic DAGs this recomputation is exact (closed forms asserted in
// tests/whatif_test.cc); on real workloads it is validated against actual
// protocol knobs (doorbell coalescing window, NvLog drainer pool, FTL GC
// reserve) in bench/whatif_validation.cc within a stated error bound.
//
// The engine is a pure observer: it never touches the Simulator, so a run
// with it attached is byte-identical in virtual time (proven by tests).
#ifndef SRC_PROFILE_WHATIF_H_
#define SRC_PROFILE_WHATIF_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/profile/critical_path.h"

namespace ccnvme {

class WhatIfEngine : public CriticalPathProfiler::RequestObserver {
 public:
  // Scale factors evaluated per edge for the frontier curve, descending
  // gain order (f = 0 removes the edge, f = 1 leaves it untouched): most
  // aggressive first, since FrontierRow::max_gain reads curve.front().
  static constexpr std::array<double, 4> kFactors = {0.0, 0.25, 0.5, 0.75};
  // Retained per-request records; oldest evicted first (deterministic).
  static constexpr size_t kMaxRequests = 1 << 16;

  // Convenience: profiler->AddRequestObserver(this).
  void Attach(CriticalPathProfiler* profiler);

  // RequestObserver.
  void OnRequestProfile(const CriticalPathProfiler::RequestProfile& profile,
                        const std::vector<TraceEvent>& events) override;
  void OnResetAggregation() override;

  // --- Baseline (recorded) statistics --------------------------------------

  size_t requests() const { return records_.size(); }
  uint64_t baseline_total_ns() const { return baseline_total_ns_; }
  uint64_t baseline_mean_ns() const {
    return records_.empty() ? 0 : baseline_total_ns_ / records_.size();
  }
  // Exact quantile over recorded latencies (0.5 = median, 0.99 = p99).
  uint64_t BaselineQuantileNs(double q) const;

  // --- Virtual speedup ------------------------------------------------------

  struct Prediction {
    WaitEdge edge = WaitEdge::kNumEdges;
    double factor = 1.0;
    uint64_t requests = 0;
    uint64_t baseline_total_ns = 0;
    uint64_t predicted_total_ns = 0;
    uint64_t baseline_p50_ns = 0;
    uint64_t predicted_p50_ns = 0;
    uint64_t baseline_p99_ns = 0;
    uint64_t predicted_p99_ns = 0;

    // Predicted fraction of mean latency reclaimed (0 = no change).
    double mean_gain() const {
      return baseline_total_ns == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(predicted_total_ns) /
                             static_cast<double>(baseline_total_ns);
    }
    // Predicted throughput speedup, baseline/predicted (1.0 = no change).
    double speedup() const {
      return predicted_total_ns == 0
                 ? 1.0
                 : static_cast<double>(baseline_total_ns) /
                       static_cast<double>(predicted_total_ns);
    }
    double tail_gain() const {
      return baseline_p99_ns == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(predicted_p99_ns) /
                             static_cast<double>(baseline_p99_ns);
    }
  };

  // Re-simulates every recorded request with |edge| scaled by |factor|.
  Prediction Predict(WaitEdge edge, double factor) const;

  // --- Optimization frontier ------------------------------------------------

  struct FrontierRow {
    WaitEdge edge = WaitEdge::kNumEdges;
    // Aggregate critical-path blame (what the blame table shows) — kept
    // beside the prediction so reports can show "blame says X%, causal
    // re-simulation says Y%".
    uint64_t blame_ns = 0;
    double blame_share = 0.0;  // of total baseline latency
    std::vector<Prediction> curve;  // one point per kFactors entry
    // Gain at the most aggressive factor — the edge's predicted ceiling.
    double max_gain() const { return curve.empty() ? 0.0 : curve.front().mean_gain(); }
  };

  // One row for EVERY registered wait edge (AllWaitEdges), ranked by
  // predicted max gain descending (ties: blame, then enum order). Zero-blame
  // edges rank last with flat curves — the negative control.
  std::vector<FrontierRow> Frontier() const;

  // --- Tail-conditioned attribution ----------------------------------------

  struct TailRow {
    uint32_t packed_key = 0;  // BlameKey::packed()
    double mean_share = 0.0;  // blame share across all requests
    double tail_share = 0.0;  // blame share across requests >= the quantile
  };
  // Blame shares over the slowest (1 - quantile) requests vs over all
  // requests: which key dominates the tail, not just the average. Rows for
  // every key that got blame anywhere, ranked by tail share descending.
  std::vector<TailRow> TailAttribution(double quantile = 0.99) const;

 private:
  struct WaitIv {
    uint64_t begin = 0;
    uint64_t end = 0;
    WaitEdge edge = WaitEdge::kNumEdges;
    uint16_t device = 0;
  };
  struct RunIv {
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  struct RequestRecord {
    uint64_t begin = 0;
    uint64_t end = 0;
    std::vector<WaitIv> waits;
    std::vector<RunIv> runs;
    // packed BlameKey -> ns, copied from the finished profile (small).
    std::vector<std::pair<uint32_t, uint64_t>> blame;
    uint64_t latency() const { return end - begin; }
  };

  // Predicted latency of one record with |edge| scaled by |factor|.
  // |release| maps a batched edge's (end, device) group to its re-simulated
  // release time; empty for non-batched edges.
  uint64_t PredictOne(const RequestRecord& r, WaitEdge edge, double factor,
                      const std::map<std::pair<uint64_t, uint16_t>, uint64_t>& release) const;

  std::deque<RequestRecord> records_;
  uint64_t baseline_total_ns_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_PROFILE_WHATIF_H_
