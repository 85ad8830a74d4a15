// Systematic crash-state exploration engine.
//
// Where CrashMonkey samples random crash states, the explorer visits EVERY
// consistency boundary of a recorded workload — the indices after each
// durable completion, flush submission and doorbell ring, plus the stream's
// two ends — and, per boundary, enumerates the choice space over the
// uncertain in-flight items: absent / present / kTornVariants torn
// variants. Boundaries whose choice space fits under
// kMaxStatesPerBoundary are enumerated exhaustively (mixed-radix
// counting); larger ones fall back to kSamplesPerBoundary seeded samples
// that always include the all-absent and all-present corners.
//
// Work is distributed across a pool of worker threads, one boundary at a
// time (each crash state boots its own independent StorageStack). Results
// are merged serially in boundary order, so the report — including
// Summary() — is byte-identical regardless of thread count.
//
// On failure, the explorer can emit deterministic replay artifacts
// (replay_artifact.h) that tools/crash_replay re-checks.
#ifndef SRC_CRASHTEST_CRASH_EXPLORER_H_
#define SRC_CRASHTEST_CRASH_EXPLORER_H_

#include <string>
#include <vector>

#include "src/crashtest/crash_state.h"

namespace ccnvme {

inline constexpr uint8_t kTornVariants = 2;          // choice radix = 2 + this
inline constexpr size_t kMaxStatesPerBoundary = 64;  // enumerated up to this many
inline constexpr size_t kSamplesPerBoundary = 24;    // beyond it, incl. the corners
inline constexpr size_t kMaxReportedFailures = 10;   // kept in a report; all are counted

struct ExplorerOptions {
  // Seed for torn-write masks and for sampling over-budget boundaries.
  uint64_t seed = 1;
  // Worker threads. 1 = serial reference execution.
  size_t threads = 1;
  // When set, a replay artifact is written for each reported failure.
  bool emit_artifacts = false;
  std::string artifact_dir = ".";
  // Registry name of the workload (required for artifacts).
  std::string workload_name;
};

struct ExplorerFailure {
  CrashPlan plan;
  std::string message;
  std::string artifact_path;  // empty unless emit_artifacts
};

struct ExplorerReport {
  size_t boundaries = 0;
  size_t states_checked = 0;
  size_t boundaries_exhaustive = 0;
  size_t boundaries_sampled = 0;
  size_t total_failures = 0;                // uncapped
  std::vector<ExplorerFailure> failures;    // first kMaxReportedFailures, in order

  bool AllPassed() const { return total_failures == 0; }
  // Deterministic multi-line description; byte-identical across runs with
  // the same recording and options regardless of options.threads.
  std::string Summary() const;
};

// The crash plans the explorer visits for one boundary, plus whether they
// cover the boundary's full choice space.
struct BoundaryPlans {
  std::vector<CrashPlan> plans;
  bool exhaustive = false;
};
BoundaryPlans PlansForBoundary(const CrashRecording& rec, size_t crash_index,
                               const ExplorerOptions& options);

// Explores every consistency boundary of |rec|.
ExplorerReport ExploreRecording(const CrashRecording& rec, const ExplorerOptions& options);

// Records the named registry workload under |config|, then explores it.
// CHECK-fails if |workload_name| is not registered.
ExplorerReport ExploreWorkload(const StackConfig& config, const std::string& workload_name,
                               ExplorerOptions options);

}  // namespace ccnvme

#endif  // SRC_CRASHTEST_CRASH_EXPLORER_H_
