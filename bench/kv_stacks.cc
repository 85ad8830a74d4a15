// kv_stacks: one fillsync workload, three durability architectures.
//
// The same MiniKV put stream (16 B keys drawn from a bounded population,
// 1 KB values, every put durable) runs against:
//   * MQFS   — MiniKV's WAL + group commit over the ccNVMe multi-queue
//              journal (fsync = one device round trip);
//   * extfs  — the same LSM engine over the classic jbd2-style journal;
//   * KV-SSD — no WAL, no memtable, no SSTs: each put is one NVMe KV Store
//              whose completion IS durability; crash consistency lives in
//              the device's shadow-commit protocol (src/nvme/kv_ssd).
//
// Reported per stack: throughput, write amplification (device bytes per
// user byte; the KV-SSD's media/host page ratio is also published as the
// ftl.waf metrics gauge), and the put-path latency.
//
// Part 2 repeats the KV-SSD run with 4096 B values. The device packs 1 KB
// values four to a flash page, so their live set fits one map segment and
// never misses the 1-frame map cache; a page-sized value takes a page of its
// own, and that live set spans both segments. This pass attaches the
// critical-path profiler rooted at the kv.op span: its blame vector sums
// EXACTLY to the aggregate op latency (asserted below), and under GC
// pressure wait.ftl_gc / wait.ftl_map_miss surface as first-class entries.
//
// Part 3 sweeps the FTL's GC threshold (gc_free_blocks_low): a larger
// reserve starts GC earlier and more often, when victims have accumulated
// less staleness — more migrations per host write (higher WAF) and more
// foreground wait.ftl_gc stalls. What the reserve buys is free-block
// headroom against allocation bursts, and this sweep prices it.
#include <string>

#include "bench/bench_runner.h"
#include "src/profile/report.h"
#include "src/workload/minikv.h"

namespace ccnvme {
namespace {

constexpr int kThreads = 8;
constexpr uint16_t kQueues = 8;
constexpr uint64_t kDurationNs = 20'000'000;
// ~570 live keys (unique keys actually drawn from the population at this
// duration) against 896 flash pages: steady-state overwrite churn that
// forces GC. With page-sized values the live set straddles both 512-entry
// map segments, so the 1-frame map cache demand-pages.
constexpr uint64_t kKeySpace = 900;
constexpr uint32_t kValueBytes = 1024;
constexpr uint32_t kPageValueBytes = 4096;

struct StackResult {
  double kiops = 0;
  double mean_put_ns = 0;   // per durable put: fs.sync (fs) / kv.op (kvssd)
  double write_amp = 0;     // device bytes written / user bytes put
  double ftl_waf = 0;       // KV-SSD only: media pages / host pages
};

FillsyncOptions BenchFillsync(BenchContext& ctx, MiniKvBackend backend,
                              uint32_t value_bytes = kValueBytes) {
  FillsyncOptions opts;
  opts.num_threads = kThreads;
  opts.duration_ns = kDurationNs;
  opts.seed = ctx.seed() - 42 + 7;  // fig12's fillsync stream, shifted by --seed
  opts.key_space = kKeySpace;
  opts.kv.backend = backend;
  opts.kv.value_size = value_bytes;
  return opts;
}

KvSsdConfig BenchKvGeometry(uint32_t gc_free_blocks_low) {
  KvSsdConfig kv;
  kv.enabled = true;
  kv.dir_slots = 2048;        // ~0.3 load factor at kKeySpace live keys
  kv.flash_pages = 896;
  kv.pages_per_block = 32;    // 28 erase blocks
  kv.total_lpns = 1024;       // 2 map segments...
  kv.map_cache_segments = 1;  // ...and a 1-frame cache: demand paging is live
  kv.gc_free_blocks_low = gc_free_blocks_low;
  return kv;
}

double MeanPhaseNs(const MetricsSnapshot& snap, TracePoint point) {
  const Histogram* h = snap.Histo(std::string("phase.") + TracePointName(point));
  if (h == nullptr || h->count() == 0) {
    return 0;
  }
  return static_cast<double>(h->sum()) / static_cast<double>(h->count());
}

StackResult RunFsStack(BenchContext& ctx, JournalKind kind) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  ctx.ApplyInjections(&cfg);
  cfg.num_queues = kQueues;
  cfg.enable_ccnvme = kind == JournalKind::kMultiQueue;
  cfg.fs.journal = kind;
  cfg.fs.journal_areas = kind == JournalKind::kMultiQueue ? kQueues : 1;
  cfg.fs.journal_blocks = 4096 * cfg.fs.journal_areas;
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  Status st = stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  const FillsyncResult r = RunFillsync(stack, BenchFillsync(ctx, MiniKvBackend::kFs));

  const MetricsSnapshot snap = metrics.TakeSnapshot();
  CCNVME_CHECK_EQ(snap.TotalViolations(), 0u) << "invariant violation during bench";
  StackResult out;
  out.kiops = r.Kiops();
  out.mean_put_ns = MeanPhaseNs(snap, TracePoint::kSyncTotal);
  const double user_bytes =
      static_cast<double>(r.ops) * (16 + kValueBytes);  // key + value per put
  out.write_amp =
      static_cast<double>(snap.Counter(TraceCounterName(TraceCounter::kBlockIoBytes))) /
      user_bytes;
  return out;
}

StackResult RunKvStack(BenchContext& ctx, uint32_t gc_free_blocks_low, uint32_t value_bytes,
                       bool report_blame, uint64_t* out_gc_stall_ns) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  ctx.ApplyInjections(&cfg);
  cfg.num_queues = kQueues;
  cfg.enable_ccnvme = false;
  cfg.kv = BenchKvGeometry(gc_free_blocks_low);
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  ProfilerOptions popts;
  popts.root = TracePoint::kKvTotal;  // one KV op = one profiled request
  CriticalPathProfiler& profiler = stack.EnableProfiling(popts);
  Status st = stack.KvFormat();
  CCNVME_CHECK(st.ok()) << st.ToString();

  const FillsyncResult r =
      RunFillsync(stack, BenchFillsync(ctx, MiniKvBackend::kKvSsd, value_bytes));

  const MetricsSnapshot snap = metrics.TakeSnapshot();
  CCNVME_CHECK_EQ(snap.TotalViolations(), 0u) << "invariant violation during bench";
  const Ftl& ftl = stack.kv_ssd()->ftl();

  // The blame vector is exact by construction; assert the invariant the
  // "exact-sum" claim rests on before reporting anything derived from it.
  uint64_t blame_total = 0;
  for (const auto& [packed, agg] : profiler.blame()) {
    blame_total += agg.total_ns;
  }
  CCNVME_CHECK_EQ(blame_total, profiler.total_latency_ns())
      << "blame vector does not sum to the profiled latency";

  const Tracer::PointAgg& gc_edge = stack.tracer()->edge_agg(WaitEdge::kFtlGc);
  const Tracer::PointAgg& miss_edge = stack.tracer()->edge_agg(WaitEdge::kFtlMapMiss);
  if (out_gc_stall_ns != nullptr) {
    *out_gc_stall_ns = gc_edge.total_ns;
  }

  StackResult out;
  out.kiops = r.Kiops();
  out.mean_put_ns = MeanPhaseNs(snap, TracePoint::kKvTotal);
  const double user_bytes = static_cast<double>(r.ops) * (16 + value_bytes);
  out.write_amp =
      static_cast<double>(ftl.media_pages_written()) * 4096.0 / user_bytes;
  out.ftl_waf = ftl.waf();

  if (report_blame) {
    // Churn over a bounded key space against a tight geometry must make GC
    // a first-class latency contributor — the point of this scenario.
    CCNVME_CHECK_GT(ftl.gc_runs(), 0u) << "bench geometry produced no GC";
    CCNVME_CHECK_GT(gc_edge.count, 0u) << "no store stalled behind GC";
    CCNVME_CHECK_GT(miss_edge.count, 0u) << "map cache never missed";

    ctx.ReportProfile(profiler);
    ctx.Log("KV-SSD put-path blame vector (exact sum over %llu ops):\n",
            static_cast<unsigned long long>(profiler.finished_requests()));
    for (const auto& [key, ns] : profiler.TopKeys(6)) {
      ctx.Log("  %-22s %8.0f ns/op (%4.1f%%)\n", key.name(),
              static_cast<double>(ns) / static_cast<double>(profiler.finished_requests()),
              100.0 * static_cast<double>(ns) /
                  static_cast<double>(profiler.total_latency_ns()));
    }
    ctx.Log("%s\n", FormatDominantLine(profiler).c_str());
    ctx.Log("wait.ftl_gc: %llu stalls, %llu us; wait.ftl_map_miss: %llu stalls, %llu us\n",
            static_cast<unsigned long long>(gc_edge.count),
            static_cast<unsigned long long>(gc_edge.total_ns / 1000),
            static_cast<unsigned long long>(miss_edge.count),
            static_cast<unsigned long long>(miss_edge.total_ns / 1000));

    // The ftl.waf metrics gauge mirrors the FTL's own ratio (x1000).
    const auto it = snap.gauges.find("ftl.waf");
    CCNVME_CHECK(it != snap.gauges.end()) << "ftl.waf gauge not published";
    CCNVME_CHECK_EQ(static_cast<uint64_t>(it->second),
                    static_cast<uint64_t>(ftl.waf() * 1000.0));
    ctx.Metric("ftl_waf", ftl.waf());
    ctx.Metric("ftl_gc_runs", static_cast<double>(ftl.gc_runs()));
    ctx.Metric("ftl_gc_migrated_pages", static_cast<double>(ftl.gc_migrated_pages()));
    ctx.Metric("ftl_map_loads", static_cast<double>(ftl.map_loads()));
    ctx.Metric("kv_gc_stall_us", static_cast<double>(gc_edge.total_ns) / 1000.0);
  }
  return out;
}

void RunKvStacks(BenchContext& ctx) {
  ctx.Log("MiniKV fillsync: %d threads, 16 B keys over %llu-key population, 1 KB values\n\n",
          kThreads, static_cast<unsigned long long>(kKeySpace));

  const StackResult mqfs = RunFsStack(ctx, JournalKind::kMultiQueue);
  const StackResult extfs = RunFsStack(ctx, JournalKind::kClassic);
  const StackResult kvssd = RunKvStack(ctx, /*gc_free_blocks_low=*/2, kValueBytes,
                                       /*report_blame=*/false, nullptr);

  ctx.Log("%-10s %10s %14s %12s\n", "stack", "KIOPS", "put-path ns", "write amp");
  const struct {
    const char* name;
    const StackResult* r;
  } rows[] = {{"MQFS", &mqfs}, {"extfs", &extfs}, {"KV-SSD", &kvssd}};
  for (const auto& row : rows) {
    ctx.Log("%-10s %10.1f %14.0f %12.2f\n", row.name, row.r->kiops,
            row.r->mean_put_ns, row.r->write_amp);
  }
  ctx.Log("(write amp = device bytes written / user bytes put; the fs stacks pay\n"
          " WAL + journal + SST rewrite, the KV-SSD pays GC migration + map I/O)\n");

  ctx.Metric("kv_fillsync_kiops_mqfs", mqfs.kiops);
  ctx.Metric("kv_fillsync_kiops_extfs", extfs.kiops);
  ctx.Metric("kv_fillsync_kiops_kvssd", kvssd.kiops);
  ctx.Metric("kv_put_ns_mqfs", mqfs.mean_put_ns);
  ctx.Metric("kv_put_ns_extfs", extfs.mean_put_ns);
  ctx.Metric("kv_put_ns_kvssd", kvssd.mean_put_ns);
  ctx.Metric("kv_write_amp_mqfs", mqfs.write_amp);
  ctx.Metric("kv_write_amp_extfs", extfs.write_amp);
  ctx.Metric("kv_write_amp_kvssd", kvssd.write_amp);

  ctx.Log("\nKV-SSD again with %u B values (one flash page each, so the live set spans\n"
          "both map segments and the map cache misses):\n\n",
          kPageValueBytes);
  RunKvStack(ctx, /*gc_free_blocks_low=*/2, kPageValueBytes, /*report_blame=*/true, nullptr);

  ctx.Log("\nWAF vs GC threshold (gc_free_blocks_low; 1 KB values, KV-SSD only)\n\n");
  ctx.Log("%12s %10s %10s %14s %12s\n", "gc_low", "KIOPS", "ftl WAF", "gc stall us", "put ns");
  for (uint32_t low : {2u, 4u, 6u, 8u}) {
    uint64_t gc_stall_ns = 0;
    const StackResult r =
        RunKvStack(ctx, low, kValueBytes, /*report_blame=*/false, &gc_stall_ns);
    ctx.Log("%12u %10.1f %10.3f %14.0f %12.0f\n", low, r.kiops, r.ftl_waf,
            static_cast<double>(gc_stall_ns) / 1000.0, r.mean_put_ns);
    ctx.Metric("ftl_waf_gc_low_" + std::to_string(low), r.ftl_waf);
  }
}

CCNVME_REGISTER_BENCH("kv_stacks",
                      "MiniKV fillsync on MQFS vs extfs vs KV-SSD with FTL WAF + blame",
                      RunKvStacks);

}  // namespace
}  // namespace ccnvme
