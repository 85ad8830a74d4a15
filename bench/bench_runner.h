// Shared bench runner: one flag surface, one JSON schema, one scenario
// registry for every benchmark in bench/.
//
// Each bench file registers scenarios with CCNVME_REGISTER_BENCH and links
// bench_main.cc for its `main`. The same objects compile into the
// `ccnvme_bench_scenarios` object library, which tools/bench_all links to
// run EVERY scenario in one process and emit a BENCH_<date>.json.
//
// Flags (BenchMain):
//   --list                 print registered scenarios and exit
//   --scenario <substr>    run only scenarios whose name contains <substr>
//   --seed <n>             PRNG seed for randomized scenarios (default 42)
//   --warmup <n>           override a scenario's warm-up iteration count
//   --json                 machine-readable report on stdout (schema below);
//                          human narration moves to stderr
//   --out <path>           write the JSON report to <path> (implies --json
//                          for the file; stdout stays human)
//   --inject doorbell=<f>  scale PcieConfig::mmio_write_overhead_ns by <f>
//                          (CI uses this to prove the perf gate trips)
//
// JSON schema "ccnvme-bench-v1":
//   { "schema": "ccnvme-bench-v1", "seed": N, "inject_doorbell": F,
//     "scenarios": [ { "name": "...",
//                      "metrics": { "<name>": number, ... },
//                      "blame_ns": { "<blame key>": ns, ... } } ] }
// Metric-name convention: names ending in "_ns" are latencies (lower is
// better); everything else is a rate/count (higher is better). The compare
// tool keys regression direction off this suffix.
#ifndef BENCH_BENCH_RUNNER_H_
#define BENCH_BENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ccnvme {

struct StackConfig;
class CriticalPathProfiler;
struct BenchReport;

// Parsed flag state plus the output accumulators for one scenario run.
class BenchContext {
 public:
  uint64_t seed() const { return seed_; }
  bool json() const { return json_; }
  // Scenario's warm-up iteration count: the --warmup override, else |def|.
  int warmup_or(int def) const { return warmup_ >= 0 ? warmup_ : def; }
  double inject_doorbell() const { return inject_doorbell_; }

  // Applies active fault/slowdown injections to a stack config (currently:
  // doorbell factor scales pcie.mmio_write_overhead_ns). Every scenario
  // that builds a StorageStack must call this so --inject works uniformly.
  void ApplyInjections(StackConfig* cfg) const;

  // Human narration. Goes to stdout normally, stderr under --json so the
  // JSON document owns stdout. printf-style.
  void Log(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // Records one result metric ("_ns" suffix = lower is better).
  void Metric(const std::string& name, double value);
  // Records one critical-path blame entry (total ns attributed to |key|).
  void Blame(const std::string& key, uint64_t ns);
  // Convenience: dumps a profiler's aggregate blame vector + dominant edge.
  void ReportProfile(const CriticalPathProfiler& profiler);

 private:
  friend BenchReport RunScenarios(const std::string& filter, uint64_t seed, int warmup,
                                  bool json, double inject_doorbell);

  uint64_t seed_ = 42;
  int warmup_ = -1;
  bool json_ = false;
  double inject_doorbell_ = 1.0;
  std::map<std::string, double> metrics_;
  std::map<std::string, uint64_t> blame_;
};

using BenchFn = void (*)(BenchContext& ctx);

struct BenchScenario {
  std::string name;
  std::string description;
  BenchFn fn = nullptr;
};

// Registry (append order = registration order; bench_main runs scenarios in
// name order so multi-file binaries are deterministic).
void RegisterBench(const char* name, const char* description, BenchFn fn);
const std::vector<BenchScenario>& AllBenchScenarios();

struct BenchRegistrar {
  BenchRegistrar(const char* name, const char* description, BenchFn fn) {
    RegisterBench(name, description, fn);
  }
};

#define CCNVME_REGISTER_BENCH(name, description, fn) \
  static const ::ccnvme::BenchRegistrar bench_registrar_##fn { name, description, fn }

// One scenario's outcome in the report.
struct BenchScenarioResult {
  std::string name;
  std::map<std::string, double> metrics;
  std::map<std::string, uint64_t> blame_ns;
};

struct BenchReport {
  uint64_t seed = 42;
  double inject_doorbell = 1.0;
  std::vector<BenchScenarioResult> scenarios;

  const BenchScenarioResult* Find(const std::string& name) const;
};

// Runs every registered scenario whose name contains |filter| (empty = all)
// under the given flag state. Narration per --json as above.
BenchReport RunScenarios(const std::string& filter, uint64_t seed, int warmup,
                         bool json, double inject_doorbell);

// JSON (de)serialization of the report, schema "ccnvme-bench-v1".
std::string BenchReportToJson(const BenchReport& report, bool pretty = true);
bool ParseBenchReport(const std::string& text, BenchReport* out, std::string* error);

// Compares |current| against |baseline|. A metric regresses when it moves
// in its bad direction by more than |tolerance|: up for names carrying a
// lower-is-better word ("ns", "us", "waf", "write_amp", "mmio_writes",
// "gc_runs", "parks", "signatures", ...; see LowerIsBetter), down otherwise
// (relative, e.g. 0.0 = exact virtual-time match). Scenarios or metrics
// present in the baseline but missing from |current| are regressions too.
// Returns the number of regressions; human-readable diff lines are appended
// to |out_diff| (regressions AND improvements, improvements don't count).
int CompareBenchReports(const BenchReport& baseline, const BenchReport& current,
                        double tolerance, std::string* out_diff);

// Standard entry point used by every bench binary (see bench_main.cc).
int BenchMain(int argc, char** argv);

}  // namespace ccnvme

#endif  // BENCH_BENCH_RUNNER_H_
