// Tail-latency forensics scenario: the always-on tail layer
// (src/profile/tail) run over the fig14 fsync workload, both directions.
//
//   clean     — the healthy MQFS/ccNVMe stack: the pathology classifier
//               must stay silent (zero signatures — asserted, and exported
//               so the CI baseline gate pins it at zero), and the captured
//               exemplars' blame vectors must sum to their end-to-end
//               latency.
//   injected  — the same workload against a slow WC drain engine (the
//               bench/core_pathologies doorbell herd): the classifier must
//               label it, and the wc_drain tail share is exported.
//
// Everything exported here is deterministic (virtual time, fixed seed), so
// baseline/BENCH_baseline.json pins it under the zero-tolerance CI gate:
// tail_clean_signatures can never silently drift off zero, and
// tail_herd_matches can never silently drop to zero.
#include <string>

#include "bench/bench_runner.h"
#include "src/harness/stack.h"
#include "src/profile/tail/tail.h"

namespace ccnvme {
namespace {

StackConfig TailStackConfig() {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.enable_ccnvme = true;
  cfg.num_queues = 4;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 4;
  cfg.fs.journal_blocks = 4096 * 4;
  return cfg;
}

struct TailRun {
  uint64_t requests = 0;
  uint64_t p50_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t signatures = 0;
  uint64_t herd_matches = 0;
  uint64_t exemplars = 0;
  double top_tail_share = 0;
};

TailRun RunWorkload(BenchContext& ctx, StackConfig cfg, int iters) {
  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  Metrics& metrics = stack.EnableMetrics();
  TailForensics tail;
  tail.Attach(&profiler);
  tail.set_metrics(&metrics);
  Status st = stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  const int warmup = ctx.warmup_or(20);
  tail.BeginPhase("warmup");
  stack.Run([&] {
    for (int i = 0; i < iters; ++i) {
      if (i == warmup) {
        profiler.ResetAggregation();
        tail.BeginPhase("steady");
      }
      auto ino = stack.fs().Create("/t_" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
      CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
    }
  });

  for (const Exemplar* ex : tail.TailExemplars()) {
    CCNVME_CHECK_EQ(ex->profile.TotalBlame(), ex->latency_ns())
        << "exemplar blame must sum exactly to its latency";
  }

  TailRun out;
  out.requests = tail.requests();
  out.p50_ns = profiler.latency_ns().Percentile(0.50);
  out.p999_ns = tail.TailThresholdNs();
  out.signatures = tail.total_signatures();
  out.herd_matches =
      tail.signature_counts()[static_cast<size_t>(Pathology::kDoorbellHerd)];
  out.exemplars = tail.reservoir().global().size();
  const auto rows = tail.TailDiff();
  if (!rows.empty()) {
    out.top_tail_share = rows.front().tail_share;
  }
  return out;
}

void RunTailForensics(BenchContext& ctx) {
  ctx.Log("Tail forensics: streaming windowed blame + signature classifier\n\n");

  // Clean direction: a healthy stack must classify NOTHING.
  StackConfig clean_cfg = TailStackConfig();
  ctx.ApplyInjections(&clean_cfg);
  const TailRun clean = RunWorkload(ctx, clean_cfg, 200);
  CCNVME_CHECK_EQ(clean.signatures, 0u)
      << "clean fig14 run matched a pathology signature";
  ctx.Log("clean:    %llu requests, p50 %llu ns, p99.9 %llu ns, 0 signatures, "
          "%llu exemplar(s)\n",
          static_cast<unsigned long long>(clean.requests),
          static_cast<unsigned long long>(clean.p50_ns),
          static_cast<unsigned long long>(clean.p999_ns),
          static_cast<unsigned long long>(clean.exemplars));

  // Injected direction: naive per-SQE doorbells against a slow WC drain
  // engine — the herd must be labeled (the tail_test/CI positive gate).
  StackConfig herd_cfg = TailStackConfig();
  ctx.ApplyInjections(&herd_cfg);
  herd_cfg.cc_options.tx_aware_mmio = false;
  herd_cfg.pcie.mmio_write_bytes_per_sec = 2'000'000;
  herd_cfg.pcie.max_mmio_backlog_ns = 500;
  const TailRun herd = RunWorkload(ctx, herd_cfg, 200);
  CCNVME_CHECK_GT(herd.herd_matches, 0u)
      << "injected doorbell herd was not classified";
  ctx.Log("injected: %llu requests, p99.9 %llu ns, doorbell_herd on %llu, "
          "top tail share %.2f\n",
          static_cast<unsigned long long>(herd.requests),
          static_cast<unsigned long long>(herd.p999_ns),
          static_cast<unsigned long long>(herd.herd_matches),
          herd.top_tail_share);

  ctx.Metric("tail_clean_requests", static_cast<double>(clean.requests));
  ctx.Metric("tail_clean_p50_ns", static_cast<double>(clean.p50_ns));
  ctx.Metric("tail_clean_p999_ns", static_cast<double>(clean.p999_ns));
  ctx.Metric("tail_clean_signatures", static_cast<double>(clean.signatures));
  ctx.Metric("tail_clean_exemplars", static_cast<double>(clean.exemplars));
  ctx.Metric("tail_herd_p999_ns", static_cast<double>(herd.p999_ns));
  ctx.Metric("tail_herd_matches", static_cast<double>(herd.herd_matches));
}

}  // namespace

CCNVME_REGISTER_BENCH("tail_forensics",
                      "tail forensics: windowed blame, signatures, exemplars",
                      RunTailForensics);

}  // namespace ccnvme
