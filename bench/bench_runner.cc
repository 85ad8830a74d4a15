#include "bench/bench_runner.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/harness/stack.h"
#include "src/profile/critical_path.h"

namespace ccnvme {
namespace {

std::vector<BenchScenario>& MutableRegistry() {
  static std::vector<BenchScenario>* registry = new std::vector<BenchScenario>();
  return *registry;
}

// Lower is better for times and for costs: amplification, MMIO writes, GC
// work, map loads, convoy parks, blocked submissions and tail signatures.
// Matched as whole '_'-separated words anywhere in the name, so
// "kv_put_ns_kvssd" and "ftl_waf_gc_low_2" count. Everything else
// (throughput, utilization, explored states, pass rates) is higher-is-better.
bool LowerIsBetter(const std::string& metric) {
  static constexpr std::string_view kLowerWords[] = {
      "ns",          "us",          "waf",     "write_amp", "write_amplification",
      "mmio_writes", "mmio_per_tx", "gc_runs", "gc_migrated_pages",
      "map_loads",   "parks",       "blocks",  "signatures"};
  const std::string padded = "_" + metric + "_";
  for (std::string_view word : kLowerWords) {
    if (padded.find("_" + std::string(word) + "_") != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

void RegisterBench(const char* name, const char* description, BenchFn fn) {
  MutableRegistry().push_back(BenchScenario{name, description, fn});
}

const std::vector<BenchScenario>& AllBenchScenarios() { return MutableRegistry(); }

void BenchContext::ApplyInjections(StackConfig* cfg) const {
  if (inject_doorbell_ != 1.0) {
    cfg->pcie.mmio_write_overhead_ns = static_cast<uint64_t>(
        static_cast<double>(cfg->pcie.mmio_write_overhead_ns) * inject_doorbell_);
  }
}

void BenchContext::Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(json_ ? stderr : stdout, fmt, args);
  va_end(args);
}

void BenchContext::Metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void BenchContext::Blame(const std::string& key, uint64_t ns) { blame_[key] = ns; }

void BenchContext::ReportProfile(const CriticalPathProfiler& profiler) {
  for (const auto& [packed, agg] : profiler.blame()) {
    blame_[BlameKey::FromPacked(packed).name()] += agg.total_ns;
  }
  if (profiler.finished_requests() > 0) {
    metrics_["profiled_requests"] = static_cast<double>(profiler.finished_requests());
    metrics_["profiled_total_latency_ns"] =
        static_cast<double>(profiler.total_latency_ns());
  }
}

const BenchScenarioResult* BenchReport::Find(const std::string& name) const {
  for (const auto& s : scenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

BenchReport RunScenarios(const std::string& filter, uint64_t seed, int warmup,
                         bool json, double inject_doorbell) {
  BenchReport report;
  report.seed = seed;
  report.inject_doorbell = inject_doorbell;

  std::vector<BenchScenario> scenarios = AllBenchScenarios();
  std::stable_sort(scenarios.begin(), scenarios.end(),
                   [](const BenchScenario& a, const BenchScenario& b) {
                     return a.name < b.name;
                   });
  for (const BenchScenario& scenario : scenarios) {
    if (!filter.empty() && scenario.name.find(filter) == std::string::npos) continue;
    BenchContext ctx;
    ctx.seed_ = seed;
    ctx.warmup_ = warmup;
    ctx.json_ = json;
    ctx.inject_doorbell_ = inject_doorbell;
    ctx.Log("### %s — %s\n", scenario.name.c_str(), scenario.description.c_str());
    scenario.fn(ctx);
    ctx.Log("\n");
    BenchScenarioResult result;
    result.name = scenario.name;
    result.metrics = std::move(ctx.metrics_);
    result.blame_ns = std::move(ctx.blame_);
    report.scenarios.push_back(std::move(result));
  }
  return report;
}

std::string BenchReportToJson(const BenchReport& report, bool pretty) {
  JsonWriter w(pretty);
  w.Open('{');
  w.Key("schema", true);
  w.String("ccnvme-bench-v1");
  w.Key("seed", false);
  w.os << report.seed;
  w.Key("inject_doorbell", false);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", report.inject_doorbell);
  w.os << buf;
  w.Key("scenarios", false);
  w.Open('[');
  bool first = true;
  for (const auto& s : report.scenarios) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("name", true);
    w.String(s.name);
    w.Key("metrics", false);
    w.Open('{');
    bool mf = true;
    for (const auto& [name, value] : s.metrics) {
      w.Key(name, mf);
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      w.os << buf;
      mf = false;
    }
    w.Close('}');
    w.Key("blame_ns", false);
    w.Open('{');
    bool bf = true;
    for (const auto& [name, ns] : s.blame_ns) {
      w.Key(name, bf);
      w.os << ns;
      bf = false;
    }
    w.Close('}');
    w.Close('}');
    first = false;
  }
  w.Close(']');
  w.Close('}');
  if (pretty) w.os << '\n';
  return w.os.str();
}

bool ParseBenchReport(const std::string& text, BenchReport* out, std::string* error) {
  JsonValue root;
  if (!JsonParse(text, &root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    if (error != nullptr) *error = "bench report is not a JSON object";
    return false;
  }
  const std::string schema = root.Str("schema");
  if (schema != "ccnvme-bench-v1") {
    if (error != nullptr) *error = "unknown bench report schema: " + schema;
    return false;
  }
  *out = BenchReport{};
  out->seed = root.U64("seed", 42);
  out->inject_doorbell = root.Num("inject_doorbell", 1.0);
  const JsonValue* scenarios = root.Find("scenarios");
  if (scenarios == nullptr || scenarios->type != JsonValue::Type::kArray) {
    if (error != nullptr) *error = "bench report has no scenarios array";
    return false;
  }
  for (const JsonValue& s : scenarios->arr) {
    BenchScenarioResult result;
    result.name = s.Str("name");
    if (const JsonValue* metrics = s.Find("metrics")) {
      for (const auto& [name, v] : metrics->obj) {
        result.metrics.emplace(name, v.num);
      }
    }
    if (const JsonValue* blame = s.Find("blame_ns")) {
      for (const auto& [name, v] : blame->obj) {
        result.blame_ns.emplace(name, static_cast<uint64_t>(v.num));
      }
    }
    out->scenarios.push_back(std::move(result));
  }
  return true;
}

int CompareBenchReports(const BenchReport& baseline, const BenchReport& current,
                        double tolerance, std::string* out_diff) {
  int regressions = 0;
  char line[256];
  for (const auto& base : baseline.scenarios) {
    const BenchScenarioResult* cur = current.Find(base.name);
    if (cur == nullptr) {
      std::snprintf(line, sizeof(line), "REGRESSION %s: scenario missing from current run\n",
                    base.name.c_str());
      if (out_diff != nullptr) *out_diff += line;
      regressions++;
      continue;
    }
    for (const auto& [metric, base_value] : base.metrics) {
      auto it = cur->metrics.find(metric);
      if (it == cur->metrics.end()) {
        std::snprintf(line, sizeof(line), "REGRESSION %s.%s: metric missing from current run\n",
                      base.name.c_str(), metric.c_str());
        if (out_diff != nullptr) *out_diff += line;
        regressions++;
        continue;
      }
      const double cur_value = it->second;
      if (cur_value == base_value) continue;
      const double rel =
          base_value != 0.0 ? (cur_value - base_value) / base_value
                            : (cur_value == 0.0 ? 0.0 : 1.0);
      const bool lower_better = LowerIsBetter(metric);
      const double bad_delta = lower_better ? rel : -rel;  // positive = worse
      const char* tag;
      if (bad_delta > tolerance) {
        tag = "REGRESSION";
        regressions++;
      } else if (bad_delta < 0.0) {
        tag = "improvement";
      } else {
        tag = "within-tolerance";
      }
      std::snprintf(line, sizeof(line), "%s %s.%s: %.17g -> %.17g (%+.3f%%)\n", tag,
                    base.name.c_str(), metric.c_str(), base_value, cur_value, rel * 100.0);
      if (out_diff != nullptr) *out_diff += line;
    }
  }
  return regressions;
}

int BenchMain(int argc, char** argv) {
  std::string filter;
  std::string out_path;
  uint64_t seed = 42;
  int warmup = -1;
  bool json = false;
  bool list = false;
  double inject_doorbell = 1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::string eq = std::string(flag) + "=";
      if (arg.rfind(eq, 0) == 0) return argv[i] + eq.size();
      if (arg == flag && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--json") {
      json = true;
    } else if (const char* sv = value("--scenario")) {
      filter = sv;
    } else if (const char* seedv = value("--seed")) {
      seed = std::strtoull(seedv, nullptr, 10);
    } else if (const char* wv = value("--warmup")) {
      warmup = std::atoi(wv);
    } else if (const char* ov = value("--out")) {
      out_path = ov;
    } else if (const char* iv = value("--inject")) {
      if (std::strncmp(iv, "doorbell=", 9) == 0) {
        inject_doorbell = std::strtod(iv + 9, nullptr);
      } else {
        std::fprintf(stderr, "unknown --inject target: %s\n", iv);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--list] [--scenario SUBSTR] [--seed N] [--warmup N]\n"
                   "          [--json] [--out PATH] [--inject doorbell=FACTOR]\n",
                   argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  if (list) {
    std::vector<BenchScenario> scenarios = AllBenchScenarios();
    std::stable_sort(scenarios.begin(), scenarios.end(),
                     [](const BenchScenario& a, const BenchScenario& b) {
                       return a.name < b.name;
                     });
    for (const auto& s : scenarios) {
      std::printf("%-32s %s\n", s.name.c_str(), s.description.c_str());
    }
    return 0;
  }

  const BenchReport report = RunScenarios(filter, seed, warmup, json, inject_doorbell);
  if (report.scenarios.empty()) {
    std::fprintf(stderr, "no scenarios matched '%s'\n", filter.c_str());
    return 2;
  }
  const std::string doc = BenchReportToJson(report, /*pretty=*/true);
  if (json) {
    std::fputs(doc.c_str(), stdout);
  }
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace ccnvme
