// Deterministic replay artifact for crash-explorer failures.
//
// When the explorer finds a crash state that fails recovery or violates an
// oracle fact, it serializes everything needed to rebuild that exact state
// to a flat JSON file: the workload name (resolved through the workload
// registry), every field of the stack configuration (the SSD encoded by
// preset name), the torn-write seed, and the crash plan (crash index +
// per-item choices). Every key is required. Since the simulator is
// deterministic, re-recording the workload on the code that wrote the
// artifact yields the identical event stream, and (plan, seed) then
// reconstruct the identical device image — tools/crash_replay re-checks it
// and must reproduce the same failure string.
#ifndef SRC_CRASHTEST_REPLAY_ARTIFACT_H_
#define SRC_CRASHTEST_REPLAY_ARTIFACT_H_

#include <string>
#include <vector>

#include "src/crashtest/crash_state.h"

namespace ccnvme {

struct ReplayArtifact {
  std::string workload;  // registry name (src/crashtest/crash_workloads.h)
  StackConfig config;
  uint64_t torn_seed = 0;
  CrashPlan plan;
  std::string failure;  // the failure string observed at record time
  // Flight recorder: formatted trace-tail lines from the recorded run
  // (what the stack was doing just before the simulated crash).
  std::vector<std::string> flight_recorder;

  std::string ToJson() const;
  static Result<ReplayArtifact> FromJson(const std::string& json);

  Status WriteFile(const std::string& path) const;
  static Result<ReplayArtifact> ReadFile(const std::string& path);
};

// Re-records the artifact's workload and re-checks its exact crash state.
// Returns the (possibly empty) failure string of the replayed check. When
// |metrics_json| is non-null the invariant monitors watch the replayed
// recovery and a metrics JSON snapshot is stored there (see src/metrics).
Result<std::string> ReplayArtifactCheck(const ReplayArtifact& artifact,
                                        std::string* metrics_json = nullptr);

}  // namespace ccnvme

#endif  // SRC_CRASHTEST_REPLAY_ARTIFACT_H_
