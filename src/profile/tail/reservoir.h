// Outlier exemplar reservoir: bounded top-k by end-to-end latency,
// globally and per workload phase.
//
// An exemplar freezes EVERYTHING about one captured request at the moment
// it finished — the complete span tree and wait edges (the raw buffered
// event stream the profiler hands its observers, which is immune to
// trace-ring wraparound), the exact blame vector and critical path, the
// metrics counter/monitor snapshot (tracer counters included), and the
// signature verdicts — so a p99.9 outlier from a million-request bench can
// be walked edge-by-edge long after the ring has overwritten its events.
//
// Admission is deterministic: a request is captured iff its latency
// strictly beats the smallest retained exemplar (or a slot is free) in the
// global reservoir or its phase's reservoir. Ties keep the EARLIEST capture
// (lower sequence number), so two identical runs capture identical sets.
// Capture is the only expensive step (it copies the event vector) and only
// happens on admission — at most k + phases*k times per steady state.
#ifndef SRC_PROFILE_TAIL_RESERVOIR_H_
#define SRC_PROFILE_TAIL_RESERVOIR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/profile/critical_path.h"
#include "src/profile/tail/signature.h"

namespace ccnvme {

struct ReservoirOptions {
  size_t global_k = 8;     // retained exemplars, whole run
  size_t per_phase_k = 4;  // retained exemplars per workload phase
  size_t max_phases = 16;  // distinct phase labels tracked
};

// One frozen outlier. latency desc / seq asc is the reservoir order.
struct Exemplar {
  uint64_t seq = 0;   // capture sequence number (deterministic tie-break)
  std::string phase;  // workload phase label at completion time
  CriticalPathProfiler::RequestProfile profile;
  std::vector<TraceEvent> events;  // complete span tree + wait edges
  std::map<std::string, uint64_t> metric_counters;
  uint64_t monitor_violations = 0;
  std::vector<Verdict> verdicts;

  uint64_t latency_ns() const { return profile.latency_ns(); }
};

class ExemplarReservoir {
 public:
  explicit ExemplarReservoir(ReservoirOptions options = {});

  // Cheap pre-check so callers only build (copy) an Exemplar that will be
  // retained somewhere.
  bool WouldAdmit(uint64_t latency_ns, const std::string& phase) const;

  // Inserts into the global and per-phase reservoirs (whichever admit) and
  // truncates each to its k. The caller should gate on WouldAdmit.
  void Add(Exemplar exemplar);

  void Reset();

  // Sorted by latency descending, capture order ascending on ties.
  const std::vector<Exemplar>& global() const { return global_; }
  // Phase label -> reservoir, same order. Deterministic map iteration.
  const std::map<std::string, std::vector<Exemplar>>& per_phase() const {
    return per_phase_;
  }

  uint64_t considered() const { return considered_; }  // WouldAdmit calls
  uint64_t captured() const { return captured_; }      // Add calls
  uint64_t displaced() const { return displaced_; }    // evicted exemplars

  const ReservoirOptions& options() const { return options_; }

 private:
  static bool Admits(const std::vector<Exemplar>& pool, size_t k,
                     uint64_t latency_ns);
  void InsertInto(std::vector<Exemplar>* pool, size_t k, const Exemplar& ex);

  ReservoirOptions options_;
  std::vector<Exemplar> global_;
  std::map<std::string, std::vector<Exemplar>> per_phase_;
  mutable uint64_t considered_ = 0;
  uint64_t captured_ = 0;
  uint64_t displaced_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_PROFILE_TAIL_RESERVOIR_H_
