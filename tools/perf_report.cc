// Causal critical-path bottleneck report for the Fig. 14 workload: create +
// 4 KB write + fsync()/fatomic() on MQFS over ccNVMe, profiled with the
// critical-path engine (src/profile). Prints the top-k blame table, the
// wait-edge expansion ("where the 3% goes") and per-key blame histograms;
// optionally dumps a flame-style JSON for external viewers. The slowest
// request's exact critical path is the first exemplar of --tail.
//
// Usage:
//   perf_report [--stack mqfs|nvlog] [--mode fsync|fatomic] [--iters N]
//               [--warmup N] [--top K] [--detail K] [--flame PATH]
//               [--no-histograms] [--queues N] [--threads N]
//               [--whatif EDGE] [--whatif-all] [--json PATH]
//
// The tool exists to answer one question by name: which edge dominates the
// end-to-end latency of a durable write. On the default workload that is the
// device round trip the caller must wait out (wait.tx_durable); with
// --stack nvlog (extfs over the NVM write-ahead log) it is the NVM persist
// barrier (wait.nvm_flush), with wait.nvlog_drain surfacing whenever the
// ring backpressures the absorb path.
//
// The what-if flags go one step further: blame says where time went; the
// causal what-if engine says what you would GET BACK by attacking an edge.
// --whatif-all prints the optimization frontier (every registered wait edge
// ranked by predicted causal gain, blame share alongside) plus the
// mean-vs-p99 tail attribution; --whatif EDGE prints one edge's full
// virtual-speedup curve; --json writes the machine-readable ccnvme-perf-v1
// document `metrics_report --check` validates.
//
// The tail flags answer the question the aggregates cannot: why was THIS
// request 40x slower? --tail attaches the tail-forensics layer
// (src/profile/tail) and prints the median-vs-p99.9 blame diff, the
// pathology signature counts and the captured outlier exemplars;
// --tail-json writes the machine-readable ccnvme-tail-v1 document
// `metrics_report --check` validates; --pathology NAME deliberately
// provokes a named pathology (the bench/core_pathologies knobs) so the
// classifier's positive direction can be exercised from the CLI — the CI
// gate runs both a clean run (asserting zero signatures) and an injected
// doorbell herd (asserting it is classified).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/stack.h"
#include "src/profile/report.h"
#include "src/profile/tail/tail.h"

namespace ccnvme {
namespace {

int Usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--stack mqfs|nvlog] [--mode fsync|fatomic] [--iters N]\n"
               "          [--warmup N] [--top K] [--detail K] [--flame PATH]\n"
               "          [--no-histograms] [--queues N] [--threads N]\n"
               "          [--whatif EDGE] [--whatif-all] [--json PATH]\n"
               "          [--tail] [--tail-json PATH] [--tail-window NS]\n"
               "          [--pathology doorbell_herd]\n",
               argv0);
  return code;
}

int RunPerfReport(int argc, char** argv) {
  std::string stack_name = "mqfs";
  std::string mode = "fsync";
  std::string flame_path;
  std::string json_path;
  std::string whatif_edge;
  std::string tail_json_path;
  std::string pathology_name;
  bool whatif_all = false;
  bool tail_report = false;
  uint64_t tail_window_ns = 0;  // 0 = WindowedOptions default
  int iters = 100;
  int warmup = 10;
  int queues = 1;
  int threads = 1;
  BlameReportOptions report_opts;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::string eq = std::string(flag) + "=";
      if (arg.rfind(eq, 0) == 0) return argv[i] + eq.size();
      if (arg == flag && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* sv = value("--stack")) {
      stack_name = sv;
    } else if (const char* mv = value("--mode")) {
      mode = mv;
    } else if (const char* nv = value("--iters")) {
      iters = std::atoi(nv);
    } else if (const char* wv = value("--warmup")) {
      warmup = std::atoi(wv);
    } else if (const char* kv = value("--top")) {
      report_opts.top_k = static_cast<size_t>(std::atoi(kv));
    } else if (const char* dv = value("--detail")) {
      report_opts.wait_detail_k = static_cast<size_t>(std::atoi(dv));
    } else if (const char* fv = value("--flame")) {
      flame_path = fv;
    } else if (arg == "--no-histograms") {
      report_opts.show_histograms = false;
    } else if (const char* wev = value("--whatif")) {
      whatif_edge = wev;
    } else if (arg == "--whatif-all") {
      whatif_all = true;
    } else if (const char* jv = value("--json")) {
      json_path = jv;
    } else if (arg == "--tail") {
      tail_report = true;
    } else if (const char* tjv = value("--tail-json")) {
      tail_json_path = tjv;
    } else if (const char* twv = value("--tail-window")) {
      tail_window_ns = static_cast<uint64_t>(std::atoll(twv));
    } else if (const char* pv = value("--pathology")) {
      pathology_name = pv;
    } else if (const char* qv = value("--queues")) {
      queues = std::atoi(qv);
    } else if (const char* tv = value("--threads")) {
      threads = std::atoi(tv);
    } else {
      return Usage(argv[0], arg == "--help" || arg == "-h" ? 0 : 2);
    }
  }
  if (mode != "fsync" && mode != "fatomic") {
    std::fprintf(stderr, "perf_report: unknown --mode '%s'\n", mode.c_str());
    return 2;
  }
  if (stack_name != "mqfs" && stack_name != "nvlog") {
    std::fprintf(stderr, "perf_report: unknown --stack '%s'\n", stack_name.c_str());
    return 2;
  }
  const bool nvlog = stack_name == "nvlog";
  if (nvlog && mode == "fatomic") {
    std::fprintf(stderr, "perf_report: fatomic needs the MQFS stack\n");
    return 2;
  }
  if (threads > queues) queues = threads;

  WaitEdge curve_edge = WaitEdge::kNumEdges;
  if (!whatif_edge.empty()) {
    curve_edge = WaitEdgeFromName(whatif_edge);
    if (curve_edge == WaitEdge::kNumEdges) {
      std::fprintf(stderr, "perf_report: unknown wait edge '%s'; registered edges:\n",
                   whatif_edge.c_str());
      for (WaitEdge e : AllWaitEdges()) {
        std::fprintf(stderr, "  %s\n", WaitEdgeName(e));
      }
      return 2;
    }
  }
  const bool want_whatif =
      whatif_all || curve_edge != WaitEdge::kNumEdges || !json_path.empty();
  const bool want_tail = tail_report || !tail_json_path.empty();

  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.enable_ccnvme = !nvlog;
  cfg.num_queues = static_cast<uint16_t>(queues);
  cfg.fs.journal = nvlog ? JournalKind::kNvlog : JournalKind::kMultiQueue;
  cfg.fs.journal_areas = nvlog ? 1 : static_cast<uint16_t>(queues);
  cfg.fs.journal_blocks = 4096;

  // Deliberate pathology injection: the same knobs bench/core_pathologies
  // turns, so the classifier's positive direction is reachable from the CLI.
  if (!pathology_name.empty()) {
    const Pathology pathology = PathologyFromName(pathology_name);
    if (pathology == Pathology::kNumPathologies) {
      std::fprintf(stderr, "perf_report: unknown pathology '%s'; registered:\n",
                   pathology_name.c_str());
      for (const SignatureRule& rule : AllSignatureRules()) {
        std::fprintf(stderr, "  %s\n", PathologyName(rule.pathology));
      }
      return 2;
    }
    switch (pathology) {
      case Pathology::kDoorbellHerd:
        // Naive per-SQE doorbells against a slow WC drain engine: the
        // backlog exceeds max_mmio_backlog_ns and wait.wc_drain stalls
        // every store (the "slow BAR" herd from bench/core_pathologies).
        cfg.cc_options.tx_aware_mmio = false;
        cfg.pcie.mmio_write_bytes_per_sec = 2'000'000;
        cfg.pcie.max_mmio_backlog_ns = 500;
        break;
      default:
        std::fprintf(stderr,
                     "perf_report: pathology '%s' needs a bench-only stack "
                     "(see bench/core_pathologies and tests/tail_test.cc); "
                     "supported here: doorbell_herd\n",
                     pathology_name.c_str());
        return 2;
    }
  }

  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  WhatIfEngine engine;
  if (want_whatif) {
    engine.Attach(&profiler);
  }
  TailOptions tail_opts;
  if (tail_window_ns != 0) tail_opts.window.window_ns = tail_window_ns;
  TailForensics tail(tail_opts);
  if (want_tail) {
    stack.EnableMetrics();
    tail.Attach(&profiler);
    tail.set_metrics(stack.metrics());
    tail.BeginPhase("warmup");
  }
  Status st = stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  const bool fsync = mode == "fsync";
  for (int t = 0; t < threads; ++t) {
    stack.Spawn("perf_report." + std::to_string(t), [&, t] {
      for (int i = 0; i < iters; ++i) {
        if (t == 0 && i == warmup) {
          profiler.ResetAggregation();
          tail.BeginPhase("steady");
        }
        auto ino = stack.fs().Create("/pr_" + std::to_string(t) + "_" +
                                     std::to_string(i));
        CCNVME_CHECK(ino.ok());
        Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
        CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
        Status sst = fsync ? stack.fs().Fsync(*ino) : stack.fs().Fatomic(*ino);
        CCNVME_CHECK(sst.ok());
      }
    }, static_cast<uint16_t>(t % queues));
  }
  stack.sim().Run();

  std::printf("workload: %s create+write(4K)+%s, %d iter x %d thread (%d warm-up)\n\n",
              nvlog ? "NVLog/extfs" : "MQFS", mode.c_str(), iters, threads, warmup);
  std::fputs(FormatBlameReport(profiler, report_opts).c_str(), stdout);
  std::printf("\n%s\n", FormatDominantLine(profiler).c_str());

  if (tail_report) {
    std::printf("\n%s", FormatTailReport(tail).c_str());
  }
  if (!tail_json_path.empty()) {
    PerfReportInfo info;
    info.stack = stack_name;
    info.mode = mode;
    info.iters = iters;
    info.warmup = warmup;
    info.threads = threads;
    info.queues = queues;
    const std::string doc = TailReportJson(tail, info, /*pretty=*/true);
    std::FILE* f = std::fopen(tail_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", tail_json_path.c_str());
      return 2;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("\nwrote tail JSON (%s) to %s\n", kTailReportSchema,
                tail_json_path.c_str());
  }

  if (whatif_all) {
    std::printf("\n%s", FormatFrontierTable(engine).c_str());
    std::printf("\n%s", FormatTailAttribution(engine).c_str());
  }
  if (curve_edge != WaitEdge::kNumEdges) {
    std::printf("\n%s", FormatWhatIfCurve(engine, curve_edge).c_str());
  }
  if (!json_path.empty()) {
    PerfReportInfo info;
    info.stack = stack_name;
    info.mode = mode;
    info.iters = iters;
    info.warmup = warmup;
    info.threads = threads;
    info.queues = queues;
    const std::string doc = PerfReportJson(profiler, &engine, info, /*pretty=*/true);
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("\nwrote perf JSON (%s) to %s\n", kPerfReportSchema, json_path.c_str());
  }

  if (!flame_path.empty()) {
    const std::string flame = FlameJson(profiler, /*pretty=*/true);
    std::FILE* f = std::fopen(flame_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flame_path.c_str());
      return 2;
    }
    std::fwrite(flame.data(), 1, flame.size(), f);
    std::fclose(f);
    std::printf("wrote flame JSON to %s\n", flame_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ccnvme

int main(int argc, char** argv) { return ccnvme::RunPerfReport(argc, argv); }
