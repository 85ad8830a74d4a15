// Tail-latency forensics (src/profile/tail): the signature classifier
// labels every registered pathology when it is injected — synthetically
// (hand-built blame vectors, exact thresholds) and for real (the same
// knobs bench/core_pathologies turns) — and a clean run yields ZERO
// signatures (negative control). The windowed aggregator and exemplar
// reservoir keep their bounds and determinism, attaching the layer never
// perturbs virtual time, the exemplar JSON round-trips losslessly, and the
// ccnvme-tail-v1 document validates (and tampered documents do not).
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/harness/host_model.h"
#include "src/harness/stack.h"
#include "src/metrics/metrics.h"
#include "src/profile/critical_path.h"
#include "src/profile/tail/tail.h"
#include "src/trace/trace_context.h"
#include "src/workload/minikv.h"

namespace ccnvme {
namespace {

// --- Synthetic helpers (the whatif_test idiom) -----------------------------

TraceEvent Span(TracePoint p, uint64_t begin, uint64_t dur, uint64_t req) {
  TraceEvent ev;
  ev.ts_ns = begin;
  ev.dur_ns = dur;
  ev.req_id = req;
  ev.point = p;
  ev.is_span = true;
  return ev;
}

TraceEvent Wait(WaitEdge e, uint64_t begin, uint64_t dur, uint64_t req) {
  TraceEvent ev;
  ev.ts_ns = begin;
  ev.dur_ns = dur;
  ev.req_id = req;
  ev.edge = e;
  return ev;
}

// Feeds |events| then the finalizing root span for |req|.
void FeedRequest(CriticalPathProfiler& profiler, const std::vector<TraceEvent>& events,
                 uint64_t root_begin, uint64_t root_dur, uint64_t req = 1) {
  for (const TraceEvent& ev : events) {
    profiler.OnTraceEvent(ev);
  }
  profiler.OnTraceEvent(Span(TracePoint::kSyncTotal, root_begin, root_dur, req));
}

// One request whose culprit-edge blame share and event count are chosen per
// rule: |share| of a 100 us request, split into |intervals| back-to-back
// waits starting at t=0 within the root window [base, base+100000).
void FeedCulpritRequest(CriticalPathProfiler& profiler, WaitEdge culprit, double share,
                        uint64_t intervals, uint64_t req, uint64_t base = 0) {
  constexpr uint64_t kLatency = 100'000;
  const uint64_t culprit_ns = static_cast<uint64_t>(share * kLatency);
  std::vector<TraceEvent> events;
  uint64_t at = base;
  for (uint64_t i = 0; i < intervals; ++i) {
    const uint64_t chunk = culprit_ns / intervals;
    events.push_back(Wait(culprit, at, chunk, req));
    at += chunk;
  }
  FeedRequest(profiler, events, base, kLatency, req);
}

// --- Classifier: every registered pathology, exact thresholds --------------

TEST(SignatureClassifierTest, LabelsEveryInjectedPathology) {
  for (const SignatureRule& rule : AllSignatureRules()) {
    CriticalPathProfiler profiler;
    TailForensics tail;
    tail.Attach(&profiler);
    // Comfortably above both thresholds.
    FeedCulpritRequest(profiler, rule.culprit, rule.min_share + 0.3,
                       rule.min_events, /*req=*/1);
    ASSERT_EQ(tail.requests(), 1u) << PathologyName(rule.pathology);
    EXPECT_EQ(tail.signature_counts()[static_cast<size_t>(rule.pathology)], 1u)
        << PathologyName(rule.pathology) << " not classified";
    EXPECT_EQ(tail.total_signatures(), 1u)
        << PathologyName(rule.pathology) << " cross-matched another rule";
    // The captured exemplar carries the verdict with the registry culprit.
    ASSERT_FALSE(tail.reservoir().global().empty());
    const Exemplar& ex = tail.reservoir().global().front();
    ASSERT_EQ(ex.verdicts.size(), 1u);
    EXPECT_EQ(ex.verdicts[0].pathology, rule.pathology);
    EXPECT_EQ(ex.verdicts[0].culprit, rule.culprit);
    EXPECT_GE(ex.verdicts[0].share, rule.min_share);
    EXPECT_GE(ex.verdicts[0].events, rule.min_events);
  }
}

TEST(SignatureClassifierTest, BelowShareThresholdDoesNotMatch) {
  for (const SignatureRule& rule : AllSignatureRules()) {
    CriticalPathProfiler profiler;
    TailForensics tail;
    tail.Attach(&profiler);
    FeedCulpritRequest(profiler, rule.culprit, rule.min_share * 0.5,
                       rule.min_events, /*req=*/1);
    EXPECT_EQ(tail.signature_counts()[static_cast<size_t>(rule.pathology)], 0u)
        << PathologyName(rule.pathology) << " matched below min_share";
  }
}

TEST(SignatureClassifierTest, TooFewEventsDoesNotMatch) {
  // Rules with min_events > 1 distinguish repeated stalls from one unlucky
  // wait: the same blame share in ONE interval must not match.
  for (const SignatureRule& rule : AllSignatureRules()) {
    if (rule.min_events <= 1) continue;
    CriticalPathProfiler profiler;
    TailForensics tail;
    tail.Attach(&profiler);
    FeedCulpritRequest(profiler, rule.culprit, rule.min_share + 0.3,
                       rule.min_events - 1, /*req=*/1);
    EXPECT_EQ(tail.signature_counts()[static_cast<size_t>(rule.pathology)], 0u)
        << PathologyName(rule.pathology) << " matched below min_events";
  }
}

TEST(SignatureClassifierTest, CleanBlameVectorYieldsNoVerdicts) {
  CriticalPathProfiler profiler;
  TailForensics tail;
  tail.Attach(&profiler);
  // The healthy fig14 shape: device round trip + doorbell window, no
  // pathology edge anywhere.
  FeedRequest(profiler,
              {Span(TracePoint::kSyncSubmitData, 0, 30'000, 1),
               Wait(WaitEdge::kDoorbellCoalesce, 30'000, 10'000, 1),
               Wait(WaitEdge::kTxDurable, 40'000, 50'000, 1)},
              0, 100'000);
  EXPECT_EQ(tail.total_signatures(), 0u);
  ASSERT_FALSE(tail.reservoir().global().empty());
  EXPECT_TRUE(tail.reservoir().global().front().verdicts.empty());
}

TEST(SignatureClassifierTest, PathologyNameRoundTrip) {
  for (const SignatureRule& rule : AllSignatureRules()) {
    EXPECT_EQ(PathologyFromName(PathologyName(rule.pathology)), rule.pathology);
  }
  EXPECT_EQ(PathologyFromName("no_such_pathology"), Pathology::kNumPathologies);
}

// --- Windowed aggregation ---------------------------------------------------

TEST(WindowedAggregatorTest, BucketsByEpochAndEvictsOldest) {
  TailOptions opts;
  opts.window.window_ns = 1000;
  opts.window.max_windows = 2;
  CriticalPathProfiler profiler;
  TailForensics tail(opts);
  tail.Attach(&profiler);
  // Requests ending in epochs 0, 0, 1, 3 (latency 100 each).
  FeedRequest(profiler, {}, 100, 100, 1);
  FeedRequest(profiler, {}, 500, 100, 2);
  FeedRequest(profiler, {}, 1200, 100, 3);
  FeedRequest(profiler, {}, 3300, 100, 4);
  const WindowedAggregator& w = tail.windows();
  EXPECT_EQ(w.windows_started(), 3u);
  EXPECT_EQ(w.windows_evicted(), 1u);
  ASSERT_EQ(w.windows().size(), 2u);
  EXPECT_EQ(w.windows().front().index, 1u);
  EXPECT_EQ(w.windows().back().index, 3u);
  EXPECT_EQ(w.windows().back().requests, 1u);
  // Whole-run totals come from the profiler: eviction cannot lose them.
  EXPECT_EQ(tail.requests(), 4u);
  EXPECT_EQ(profiler.total_latency_ns(), 400u);
}

// --- Exemplar reservoir -----------------------------------------------------

TEST(ExemplarReservoirTest, KeepsTopKAndBreaksTiesByEarliestCapture) {
  ReservoirOptions opts;
  opts.global_k = 2;
  opts.per_phase_k = 2;
  ExemplarReservoir res(opts);
  auto make = [](uint64_t seq, uint64_t latency) {
    Exemplar ex;
    ex.seq = seq;
    ex.phase = "main";
    ex.profile.begin_ns = 0;
    ex.profile.end_ns = latency;
    return ex;
  };
  ASSERT_TRUE(res.WouldAdmit(100, "main"));
  res.Add(make(0, 100));
  ASSERT_TRUE(res.WouldAdmit(50, "main"));  // free slot
  res.Add(make(1, 50));
  // Equal latency does NOT displace (strict >): the earliest capture stays.
  EXPECT_FALSE(res.WouldAdmit(50, "main"));
  ASSERT_TRUE(res.WouldAdmit(60, "main"));
  res.Add(make(2, 60));
  ASSERT_EQ(res.global().size(), 2u);
  EXPECT_EQ(res.global()[0].seq, 0u);
  EXPECT_EQ(res.global()[1].seq, 2u);
  EXPECT_EQ(res.captured(), 2u + 1u);
  EXPECT_GE(res.displaced(), 1u);
}

TEST(ExemplarReservoirTest, PerPhasePoolsAreIndependentAndBounded) {
  ReservoirOptions opts;
  opts.global_k = 1;
  opts.per_phase_k = 1;
  opts.max_phases = 2;
  ExemplarReservoir res(opts);
  auto add = [&](uint64_t seq, uint64_t latency, const std::string& phase) {
    Exemplar ex;
    ex.seq = seq;
    ex.phase = phase;
    ex.profile.end_ns = latency;
    if (res.WouldAdmit(latency, phase)) res.Add(ex);
  };
  add(0, 100, "warmup");
  add(1, 10, "steady");  // below global min but a new phase pool admits it
  ASSERT_EQ(res.per_phase().size(), 2u);
  EXPECT_EQ(res.per_phase().at("warmup").size(), 1u);
  EXPECT_EQ(res.per_phase().at("steady").size(), 1u);
  // A third phase label is dropped at the max_phases bound.
  add(2, 5, "extra");
  EXPECT_EQ(res.per_phase().size(), 2u);
  ASSERT_EQ(res.global().size(), 1u);
  EXPECT_EQ(res.global()[0].seq, 0u);
}

// --- Tail diff + consistency on a synthetic mix -----------------------------

TEST(TailForensicsTest, TailDiffSeparatesTailFromOverallAndSumsExactly) {
  CriticalPathProfiler profiler;
  TailForensics tail;
  tail.Attach(&profiler);
  // 9 fast requests dominated by tx_durable, 1 slow outlier dominated by GC
  // (the whatif tail-attribution shape).
  for (uint64_t i = 0; i < 9; ++i) {
    const uint64_t base = i * 1000;
    FeedRequest(profiler, {Wait(WaitEdge::kTxDurable, base, 80, i + 1)}, base, 100,
                i + 1);
  }
  FeedRequest(profiler, {Wait(WaitEdge::kFtlGc, 9000, 900, 10)}, 9000, 1000, 10);

  // The slowest request always qualifies for the tail set.
  const auto exemplars = tail.TailExemplars();
  ASSERT_FALSE(exemplars.empty());
  EXPECT_EQ(exemplars.front()->profile.req_id, 10u);
  for (const Exemplar* ex : exemplars) {
    EXPECT_EQ(ex->profile.TotalBlame(), ex->latency_ns())
        << "exemplar blame must sum exactly to its end-to-end latency";
  }
  // GC leads the tail ranking; its tail share exceeds its overall share.
  const auto rows = tail.TailDiff();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().packed_key, BlameKey::Wait(WaitEdge::kFtlGc).packed());
  EXPECT_GT(rows.front().tail_share, rows.front().overall_share);
  double overall_sum = 0, tail_sum = 0;
  for (const auto& row : rows) {
    overall_sum += row.overall_share;
    tail_sum += row.tail_share;
  }
  EXPECT_NEAR(overall_sum, 1.0, 1e-9);
  EXPECT_NEAR(tail_sum, 1.0, 1e-9);
}

TEST(TailForensicsTest, ResetAggregationClearsEverything) {
  CriticalPathProfiler profiler;
  TailForensics tail;
  tail.Attach(&profiler);
  FeedCulpritRequest(profiler, WaitEdge::kFtlGc, 0.9, 1, 1);
  ASSERT_EQ(tail.requests(), 1u);
  profiler.ResetAggregation();
  EXPECT_EQ(tail.requests(), 0u);
  EXPECT_EQ(tail.total_signatures(), 0u);
  EXPECT_TRUE(tail.reservoir().global().empty());
  EXPECT_TRUE(tail.windows().windows().empty());
}

// --- Real workloads ---------------------------------------------------------

StackConfig MqfsFsyncConfig() {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.enable_ccnvme = true;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  return cfg;
}

uint64_t RunFsyncWorkload(StorageStack& stack, int iters) {
  Status st = stack.MkfsAndMount();
  EXPECT_TRUE(st.ok()) << st.ToString();
  stack.Run([&] {
    for (int i = 0; i < iters; ++i) {
      auto ino = stack.fs().Create("/w_" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
  });
  return stack.sim().now();
}

// Negative control: the clean fig14 workload yields ZERO signatures and
// exemplars whose blame sums exactly to their latency.
TEST(TailWorkloadTest, CleanRunHasZeroSignaturesAndExactConsistency) {
  StorageStack stack(MqfsFsyncConfig());
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  Metrics& metrics = stack.EnableMetrics();
  TailForensics tail;
  tail.Attach(&profiler);
  tail.set_metrics(&metrics);
  RunFsyncWorkload(stack, 40);

  ASSERT_GT(tail.requests(), 0u);
  EXPECT_EQ(tail.total_signatures(), 0u) << "clean run matched a pathology";
  ASSERT_FALSE(tail.TailExemplars().empty());
  for (const Exemplar* ex : tail.TailExemplars()) {
    EXPECT_EQ(ex->profile.TotalBlame(), ex->latency_ns());
    EXPECT_TRUE(ex->verdicts.empty());
    EXPECT_FALSE(ex->events.empty());
    EXPECT_EQ(ex->monitor_violations, 0u);
  }
}

// The observer contract: attaching the full tail layer (metrics snapshots
// included) must not move a single virtual-time event, and two
// identical runs must produce byte-identical ccnvme-tail-v1 documents.
TEST(TailWorkloadTest, TailDoesNotPerturbVirtualTimeAndIsDeterministic) {
  uint64_t bare_end;
  {
    StorageStack stack(MqfsFsyncConfig());
    stack.EnableProfiling();
    bare_end = RunFsyncWorkload(stack, 30);
  }
  auto run = [](std::string* json) -> uint64_t {
    StorageStack stack(MqfsFsyncConfig());
    CriticalPathProfiler& profiler = stack.EnableProfiling();
    Metrics& metrics = stack.EnableMetrics();
    TailForensics tail;
    tail.Attach(&profiler);
    tail.set_metrics(&metrics);
    tail.BeginPhase("warmup");
    const uint64_t end = RunFsyncWorkload(stack, 30);
    PerfReportInfo info;
    info.stack = "mqfs";
    info.mode = "fsync";
    info.iters = 30;
    *json = TailReportJson(tail, info);
    return end;
  };
  std::string json_a, json_b;
  const uint64_t end_a = run(&json_a);
  const uint64_t end_b = run(&json_b);
  EXPECT_EQ(end_a, bare_end) << "attaching tail forensics perturbed virtual time";
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_FALSE(json_a.empty());
}

// Injected doorbell herd, the CLI direction: naive per-SQE doorbells
// against a slow WC drain engine back the posted-write path up past
// max_mmio_backlog_ns, and every request classifies as doorbell_herd.
TEST(TailWorkloadTest, InjectedDoorbellHerdIsClassified) {
  StackConfig cfg = MqfsFsyncConfig();
  cfg.cc_options.tx_aware_mmio = false;
  cfg.pcie.mmio_write_bytes_per_sec = 2'000'000;
  cfg.pcie.max_mmio_backlog_ns = 500;
  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  TailForensics tail;
  tail.Attach(&profiler);
  RunFsyncWorkload(stack, 30);
  ASSERT_GT(tail.requests(), 0u);
  EXPECT_GT(tail.signature_counts()[static_cast<size_t>(Pathology::kDoorbellHerd)], 0u)
      << "injected doorbell herd was not classified";
}

// Injected SQ-full storm: raw ccNVMe-atomic transactions against a 4-slot
// P-SQ (the bench/core_pathologies storm, shrunk). Strictly serial cores
// (contexts_per_core=1) keep one open tx per queue — the driver contract —
// while back-to-back submission outruns the completion drain, so SubmitTx
// parks on a free slot. Each client wraps its transaction in a kSyncTotal
// root span so the profiler finalizes it as one request.
TEST(TailWorkloadTest, InjectedSqFullStormIsClassified) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::OptaneP5800X();
  cfg.enable_ccnvme = true;
  cfg.num_queues = 2;
  cfg.queue_depth = 4;
  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  Tracer& tracer = *stack.tracer();
  TailForensics tail;
  tail.Attach(&profiler);

  HostModelConfig hm_cfg;
  hm_cfg.num_cores = 2;
  hm_cfg.contexts_per_core = 1;
  HostModel host(&stack, hm_cfg);
  auto next_tx = std::make_shared<std::vector<uint64_t>>(2, 1);
  auto remaining = std::make_shared<std::vector<int>>(2, 40);
  auto last = std::make_shared<std::vector<CcNvmeDriver::TxHandle>>(2, nullptr);
  auto payloads = std::make_shared<std::vector<Buffer>>();
  for (int i = 0; i < 2; ++i) payloads->push_back(Buffer(kLbaSize, 1));
  auto jd = std::make_shared<Buffer>(kLbaSize, 0x3D);
  for (uint16_t core = 0; core < 2; ++core) {
    host.AddClient(
        "storm" + std::to_string(core),
        [&, next_tx, remaining, last, payloads, jd, core] {
          if ((*remaining)[core] == 0) {
            if ((*last)[core] != nullptr) {
              stack.ccnvme()->WaitDurable((*last)[core]);
              (*last)[core] = nullptr;
            }
            return false;
          }
          (*remaining)[core]--;
          const uint64_t tx = (*next_tx)[core]++;
          const uint64_t req = static_cast<uint64_t>(core) * 1'000'000 + tx;
          ScopedTraceContext ctx(TraceContext{req, tx, 0});
          tracer.BeginSpan(TracePoint::kSyncTotal);
          stack.ccnvme()->SubmitTx(core, tx, 10'000 + req, &(*payloads)[core]);
          (*last)[core] =
              stack.ccnvme()->CommitTx(core, tx, 600'000 + req * 2, jd.get());
          tracer.EndSpan(TracePoint::kSyncTotal);
          return true;
        },
        core);
  }
  host.Run();

  ASSERT_GT(tail.requests(), 0u);
  EXPECT_GT(tail.signature_counts()[static_cast<size_t>(Pathology::kSqFullStorm)], 0u)
      << "injected SQ-full storm was not classified";
}

// Injected commit convoy: every core fsyncs the SAME file, so followers
// park on wait.fsync_leader behind the cross-core group-commit leader.
TEST(TailWorkloadTest, InjectedCommitConvoyIsClassified) {
  StackConfig cfg = MqfsFsyncConfig();
  cfg.num_queues = 4;
  cfg.fs.journal_areas = 4;
  cfg.fs.journal_blocks = 16384;
  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  TailForensics tail;
  tail.Attach(&profiler);
  Status st = stack.MkfsAndMount();
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto ino = std::make_shared<InodeNum>(kInvalidInode);
  stack.Run([&] {
    auto created = stack.fs().Create("/convoy");
    ASSERT_TRUE(created.ok());
    *ino = *created;
  });

  HostModelConfig hm_cfg;
  hm_cfg.num_cores = 4;
  hm_cfg.contexts_per_core = 2;
  HostModel host(&stack, hm_cfg);
  const uint64_t end_ns = stack.sim().now() + 3'000'000;
  auto offsets = std::make_shared<std::vector<uint64_t>>(8, 0);
  auto bufs = std::make_shared<std::vector<Buffer>>();
  for (uint32_t i = 0; i < 8; ++i) {
    bufs->push_back(Buffer(kFsBlockSize, static_cast<uint8_t>(i + 1)));
  }
  for (uint32_t i = 0; i < 8; ++i) {
    host.AddClient("convoy" + std::to_string(i), [&, offsets, bufs, ino, i, end_ns] {
      if (stack.sim().now() >= end_ns) return false;
      // Distinct 4 KB regions: contend on the inode, never on bytes.
      const uint64_t off =
          (static_cast<uint64_t>(i) * 64 + (*offsets)[i] % 64) * kFsBlockSize;
      (*offsets)[i]++;
      EXPECT_TRUE(stack.fs().Write(*ino, off, (*bufs)[i]).ok());
      EXPECT_TRUE(stack.fs().Fsync(*ino).ok());
      return true;
    });
  }
  host.Run();

  ASSERT_GT(tail.requests(), 0u);
  EXPECT_GT(tail.signature_counts()[static_cast<size_t>(Pathology::kCommitConvoy)], 0u)
      << "injected commit convoy was not classified";
}

// Injected FTL GC stall + map-miss thrash: MiniKV fillsync on the KV-SSD
// with an eager GC reserve and a single-frame L2P map cache (the
// whatif_validation geometry). One run provokes both signatures.
TEST(TailWorkloadTest, InjectedFtlGcStallAndMapMissThrashAreClassified) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.num_queues = 4;
  cfg.enable_ccnvme = false;
  cfg.kv.enabled = true;
  cfg.kv.dir_slots = 2048;
  cfg.kv.flash_pages = 896;
  cfg.kv.pages_per_block = 32;
  cfg.kv.total_lpns = 1024;
  cfg.kv.map_cache_segments = 1;
  cfg.kv.gc_free_blocks_low = 2;
  StorageStack stack(cfg);
  ProfilerOptions popts;
  popts.root = TracePoint::kKvTotal;
  CriticalPathProfiler& profiler = stack.EnableProfiling(popts);
  TailForensics tail;
  tail.Attach(&profiler);
  Status st = stack.KvFormat();
  ASSERT_TRUE(st.ok()) << st.ToString();

  FillsyncOptions opts;
  opts.num_threads = 4;
  opts.duration_ns = 10'000'000;
  opts.seed = 14;
  opts.key_space = 900;
  opts.kv.backend = MiniKvBackend::kKvSsd;
  // One-page values: sub-page ones are packed four to a page, and their
  // LPNs then fit one map segment, so the map cache would stop missing.
  opts.kv.value_size = 4096;
  RunFillsync(stack, opts);

  ASSERT_GT(tail.requests(), 0u);
  EXPECT_GT(tail.signature_counts()[static_cast<size_t>(Pathology::kFtlGcStall)], 0u)
      << "injected GC pressure was not classified";
  EXPECT_GT(tail.signature_counts()[static_cast<size_t>(Pathology::kMapMissThrash)], 0u)
      << "injected map-cache thrash was not classified";
}

// Injected NVLog drain backpressure: a deliberately tiny NVM ring forces
// the absorb path into the drainer (the whatif_validation shape).
TEST(TailWorkloadTest, InjectedNvlogDrainBackpressureIsClassified) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  cfg.nvm.enabled = true;
  cfg.nvm.size_bytes = 96 * 1024;
  cfg.fs.nvlog_drain_batch = 1;
  cfg.fs.nvlog_drainers = 1;
  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  TailForensics tail;
  tail.Attach(&profiler);
  Status st = stack.MkfsAndMount();
  ASSERT_TRUE(st.ok()) << st.ToString();

  constexpr int kFiles = 64;
  constexpr int kGroups = 4;
  constexpr int kPerGroup = kFiles / kGroups;
  stack.Run([&] {
    std::vector<InodeNum> inos;
    for (int i = 0; i < kFiles; ++i) {
      auto ino = stack.fs().Create("/nv_" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      inos.push_back(*ino);
    }
    for (int i = 0; i < 120; ++i) {
      const int idx = (i % kGroups) * kPerGroup + (i / kGroups) % kPerGroup;
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i + 1));
      ASSERT_TRUE(stack.fs().Write(inos[idx], 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(inos[idx]).ok());
    }
  });

  ASSERT_GT(tail.requests(), 0u);
  EXPECT_GT(
      tail.signature_counts()[static_cast<size_t>(Pathology::kNvlogDrainBackpressure)],
      0u)
      << "injected NVLog ring backpressure was not classified";
}

// --- Reports: JSON round trip + validation ----------------------------------

TEST(TailReportTest, ExemplarJsonRoundTripsLosslessly) {
  StorageStack stack(MqfsFsyncConfig());
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  Metrics& metrics = stack.EnableMetrics();
  TailForensics tail;
  tail.Attach(&profiler);
  tail.set_metrics(&metrics);
  RunFsyncWorkload(stack, 20);
  ASSERT_FALSE(tail.reservoir().global().empty());
  const Exemplar& ex = tail.reservoir().global().front();

  const std::string json = ExemplarJson(ex);
  JsonValue doc;
  std::string perr;
  ASSERT_TRUE(JsonParse(json, &doc, &perr)) << perr;
  Exemplar back;
  std::string rerr;
  ASSERT_TRUE(ParseExemplarJson(doc, &back, &rerr)) << rerr;

  EXPECT_EQ(back.seq, ex.seq);
  EXPECT_EQ(back.phase, ex.phase);
  EXPECT_EQ(back.profile.req_id, ex.profile.req_id);
  EXPECT_EQ(back.profile.tx_id, ex.profile.tx_id);
  EXPECT_EQ(back.profile.begin_ns, ex.profile.begin_ns);
  EXPECT_EQ(back.profile.end_ns, ex.profile.end_ns);
  EXPECT_EQ(back.latency_ns(), ex.latency_ns());
  EXPECT_EQ(back.profile.blame_ns, ex.profile.blame_ns);
  EXPECT_EQ(back.profile.TotalBlame(), back.latency_ns());
  ASSERT_EQ(back.profile.critical_path.size(), ex.profile.critical_path.size());
  for (size_t i = 0; i < ex.profile.critical_path.size(); ++i) {
    EXPECT_EQ(back.profile.critical_path[i].begin_ns, ex.profile.critical_path[i].begin_ns);
    EXPECT_EQ(back.profile.critical_path[i].end_ns, ex.profile.critical_path[i].end_ns);
    EXPECT_EQ(back.profile.critical_path[i].key.packed(),
              ex.profile.critical_path[i].key.packed());
  }
  ASSERT_EQ(back.events.size(), ex.events.size());
  for (size_t i = 0; i < ex.events.size(); ++i) {
    EXPECT_EQ(back.events[i].ts_ns, ex.events[i].ts_ns);
    EXPECT_EQ(back.events[i].dur_ns, ex.events[i].dur_ns);
    EXPECT_EQ(back.events[i].req_id, ex.events[i].req_id);
    EXPECT_EQ(back.events[i].edge, ex.events[i].edge);
    EXPECT_EQ(back.events[i].point, ex.events[i].point);
    EXPECT_EQ(back.events[i].is_span, ex.events[i].is_span);
  }
  EXPECT_FALSE(ex.metric_counters.empty());
  EXPECT_EQ(back.metric_counters, ex.metric_counters);
  EXPECT_EQ(back.monitor_violations, ex.monitor_violations);
  EXPECT_EQ(back.verdicts.size(), ex.verdicts.size());
}

TEST(TailReportTest, TailReportJsonValidatesAndTamperingIsCaught) {
  StorageStack stack(MqfsFsyncConfig());
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  Metrics& metrics = stack.EnableMetrics();
  TailForensics tail;
  tail.Attach(&profiler);
  tail.set_metrics(&metrics);
  RunFsyncWorkload(stack, 30);

  PerfReportInfo info;
  info.stack = "mqfs";
  info.mode = "fsync";
  info.iters = 30;
  const std::string json = TailReportJson(tail, info);
  JsonValue doc;
  std::string perr;
  ASSERT_TRUE(JsonParse(json, &doc, &perr)) << perr;
  std::string verr;
  EXPECT_TRUE(ValidateTailReportJson(doc, &verr)) << verr;

  // Dropping the signature section must be caught.
  const size_t cut = json.find("\"signatures\"");
  ASSERT_NE(cut, std::string::npos);
  std::string broken = json;
  broken.replace(cut, std::strlen("\"signatures\""), "\"signatxres\"");
  JsonValue bad;
  ASSERT_TRUE(JsonParse(broken, &bad, &perr)) << perr;
  EXPECT_FALSE(ValidateTailReportJson(bad, &verr));

  // Tampering with the request count must be caught.
  const size_t req_cut = json.find("\"requests\"");
  ASSERT_NE(req_cut, std::string::npos);
  std::string forged = json;
  forged.replace(req_cut, std::strlen("\"requests\""), "\"requestx\"");
  JsonValue forged_doc;
  ASSERT_TRUE(JsonParse(forged, &forged_doc, &perr)) << perr;
  EXPECT_FALSE(ValidateTailReportJson(forged_doc, &verr));

  const std::string text = FormatTailReport(tail);
  EXPECT_NE(text.find("signatures: none"), std::string::npos);
}

// Phase labels bucket exemplars: a warmup/steady split must surface both
// phase pools in the reservoir.
TEST(TailReportTest, PhaseLabelsBucketExemplars) {
  StorageStack stack(MqfsFsyncConfig());
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  TailForensics tail;
  tail.Attach(&profiler);
  tail.BeginPhase("warmup");
  Status st = stack.MkfsAndMount();
  ASSERT_TRUE(st.ok()) << st.ToString();
  stack.Run([&] {
    for (int i = 0; i < 20; ++i) {
      if (i == 10) tail.BeginPhase("steady");
      auto ino = stack.fs().Create("/p_" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
  });
  EXPECT_EQ(tail.reservoir().per_phase().count("warmup"), 1u);
  EXPECT_EQ(tail.reservoir().per_phase().count("steady"), 1u);
}

}  // namespace
}  // namespace ccnvme
