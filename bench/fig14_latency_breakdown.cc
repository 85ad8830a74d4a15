// Figure 14: latency breakdown of the fsync()/fatomic() path for a newly
// created file (create + 4 KB write + fsync), MQFS vs. Ext4-NJ on the
// Optane 905P.
//
// S = submit, W = wait; iD = the file's data, iM = its inode metadata,
// pM = parent-directory metadata (incl. bitmaps), JH = journal description.
//
// The per-phase numbers come from the metrics engine's phase attribution:
// the FS/journal emit kSync* spans (src/trace/trace_point.h), the tracer
// keeps a per-point duration histogram of them, and this bench reads those
// as the phase.* series of a MetricsSnapshot (src/metrics) — no
// bench-specific aggregation.
//
// On top of that, the MQFS fsync run attaches the causal critical-path
// profiler (src/profile) and reports the per-edge blame vector — the "where
// the 3% goes" decomposition of the residual gap the phase means can't
// explain (doorbell coalescing, WC drain, commit barrier, ...).
//
// Expected shape (paper, nanoseconds):
//   MQFS:    S-iD~6790 S-iM~1782 S-pM~1599 S-JH~1107, fatomic~10300,
//            fsync~22387 — the CPU keeps submitting without idling; the
//            durability wait is one device round trip.
//   Ext4-NJ: iD~17928 iM~10519 pM~10040, fsync~38487 — three serialized
//            submit+wait phases (the CPU idles between them).
#include <string>

#include "bench/bench_runner.h"
#include "src/harness/stack.h"
#include "src/profile/report.h"

namespace ccnvme {
namespace {

// Per-sync mean of each phase over the measured iterations: a phase may fire
// several times per sync (e.g. one kSyncSubmitParent span per parent block),
// so its span durations are summed and divided by the number of syncs, not
// by the number of spans.
struct Breakdown {
  double mean[kNumTracePoints] = {};
  double Of(TracePoint p) const { return mean[static_cast<size_t>(p)]; }
};

Breakdown RunBreakdown(BenchContext& ctx, JournalKind kind, SyncMode mode,
                       bool profile) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  ctx.ApplyInjections(&cfg);
  cfg.enable_ccnvme = kind == JournalKind::kMultiQueue;
  cfg.fs.journal = kind;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  CriticalPathProfiler* profiler = profile ? &stack.EnableProfiling() : nullptr;
  Status st = stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  const int warmup = ctx.warmup_or(10);
  stack.Run([&] {
    for (int i = 0; i < 100; ++i) {
      if (i == warmup) {  // skip warm-up
        metrics.ResetAggregation();
        stack.tracer()->ResetAggregation();
        if (profiler != nullptr) {
          profiler->ResetAggregation();
        }
      }
      auto ino = stack.fs().Create("/bd_" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
      Status sst = mode == SyncMode::kFsync ? stack.fs().Fsync(*ino)
                                            : stack.fs().Fatomic(*ino);
      CCNVME_CHECK(sst.ok());
    }
  });

  const MetricsSnapshot snap = metrics.TakeSnapshot();
  CCNVME_CHECK_EQ(snap.TotalViolations(), 0u) << "invariant violation during bench";
  Breakdown bd;
  const Histogram* total =
      snap.Histo(std::string("phase.") + TracePointName(TracePoint::kSyncTotal));
  CCNVME_CHECK(total != nullptr && total->count() > 0);
  const uint64_t syncs = total->count();
  for (size_t p = 0; p < kNumTracePoints; ++p) {
    const Histogram* h =
        snap.Histo(std::string("phase.") + TracePointName(static_cast<TracePoint>(p)));
    if (h != nullptr) {
      bd.mean[p] = static_cast<double>(h->sum()) / static_cast<double>(syncs);
    }
  }
  if (profiler != nullptr) {
    ctx.ReportProfile(*profiler);
    ctx.Log("\n%s\n", FormatDominantLine(*profiler).c_str());
  }
  return bd;
}

void RunFig14(BenchContext& ctx) {
  ctx.Log("Figure 14(a): MQFS fsync()/fatomic() path of a newly created file (ns, 905P)\n\n");
  const Breakdown mqfs =
      RunBreakdown(ctx, JournalKind::kMultiQueue, SyncMode::kFsync, /*profile=*/true);
  const Breakdown mqfs_atomic =
      RunBreakdown(ctx, JournalKind::kMultiQueue, SyncMode::kFatomic, /*profile=*/false);
  ctx.Log("%10s %10s %10s %10s %10s | %10s %10s\n", "S-iD", "S-iM", "S-pM", "S-JH",
          "W(durable)", "fatomic", "fsync");
  ctx.Log("%10.0f %10.0f %10.0f %10.0f %10.0f | %10.0f %10.0f\n",
          mqfs.Of(TracePoint::kSyncSubmitData), mqfs.Of(TracePoint::kSyncSubmitInode),
          mqfs.Of(TracePoint::kSyncSubmitParent), mqfs.Of(TracePoint::kSyncSubmitDesc),
          mqfs.Of(TracePoint::kSyncWaitDurable),
          mqfs_atomic.Of(TracePoint::kSyncTotal), mqfs.Of(TracePoint::kSyncTotal));
  ctx.Log("(paper:  6790       1782       1599       1107      ~12000 |      10300      22387)\n");

  ctx.Log("\nFigure 14(b): Ext4-NJ fsync() path of a newly created file (ns, 905P)\n\n");
  const Breakdown nj =
      RunBreakdown(ctx, JournalKind::kNone, SyncMode::kFsync, /*profile=*/false);
  ctx.Log("%14s %14s %14s | %10s\n", "S-iD + W-iD", "S-iM + W-iM", "S-pM + W-pM",
          "fsync");
  ctx.Log("%14.0f %14.0f %14.0f | %10.0f\n",
          nj.Of(TracePoint::kSyncSubmitData) + nj.Of(TracePoint::kSyncWaitData),
          nj.Of(TracePoint::kSyncSubmitInode) + nj.Of(TracePoint::kSyncWaitInode),
          nj.Of(TracePoint::kSyncSubmitParent) + nj.Of(TracePoint::kSyncWaitParent),
          nj.Of(TracePoint::kSyncTotal));
  ctx.Log("(paper:         17928          10519          10040 |      38487)\n");

  ctx.Log("\nFigure 14(c): NVLog/extfs fsync() path of a newly created file (ns, 905P)\n");
  ctx.Log("(absorb-then-drain: fsync returns at the NVM fence; disk drain is off-path)\n\n");
  const Breakdown nvlog =
      RunBreakdown(ctx, JournalKind::kNvlog, SyncMode::kFsync, /*profile=*/true);
  ctx.Log("%12s %12s | %10s\n", "nvlog.append", "nvlog.fence", "fsync");
  ctx.Log("%12.0f %12.0f | %10.0f\n", nvlog.Of(TracePoint::kNvlogAppend),
          nvlog.Of(TracePoint::kNvlogFence), nvlog.Of(TracePoint::kSyncTotal));

  const double speedup =
      1.0 - mqfs.Of(TracePoint::kSyncTotal) / nj.Of(TracePoint::kSyncTotal);
  ctx.Log("\nMQFS decreases fsync latency by %.0f%% vs Ext4-NJ (paper: 42%%)\n",
          speedup * 100);

  ctx.Metric("mqfs_fsync_total_ns", mqfs.Of(TracePoint::kSyncTotal));
  ctx.Metric("mqfs_fatomic_total_ns", mqfs_atomic.Of(TracePoint::kSyncTotal));
  ctx.Metric("ext4nj_fsync_total_ns", nj.Of(TracePoint::kSyncTotal));
  ctx.Metric("nvlog_fsync_total_ns", nvlog.Of(TracePoint::kSyncTotal));
  ctx.Metric("mqfs_fsync_speedup_pct", speedup * 100);
}

CCNVME_REGISTER_BENCH("fig14_latency_breakdown",
                      "fsync/fatomic latency breakdown with critical-path blame",
                      RunFig14);

}  // namespace
}  // namespace ccnvme
