// Metrics engine + invariant monitor tests: registry interning semantics,
// histogram percentile accuracy, snapshot/delta correctness, unit-level
// monitor violations, live monitors catching both injected bugs during
// normal execution, metrics-on/off virtual-time determinism, and exporter
// round trips (JSON parse-back + Prometheus text).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/ccnvme/ccnvme_driver.h"
#include "src/harness/stack.h"
#include "src/metrics/export.h"
#include "src/metrics/metrics.h"
#include "src/nvme/pmr.h"

namespace ccnvme {
namespace {

StackConfig MqfsConfig() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 2;
  cfg.fs.journal_blocks = 2048;
  return cfg;
}

StackConfig StripedConfig(uint16_t devices) {
  StackConfig cfg = MqfsConfig();
  cfg.num_devices = devices;
  cfg.volume.kind = VolumeKind::kStripe;
  cfg.volume.chunk_blocks = 4;
  return cfg;
}

void FsyncWorkload(StorageStack& stack, int files) {
  for (int i = 0; i < files; ++i) {
    auto ino = stack.fs().Create("/m" + std::to_string(i));
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(
        stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, static_cast<uint8_t>(i + 1))).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
  }
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, InterningIsIdempotent) {
  MetricsRegistry reg;
  const auto c1 = reg.Counter("a.b");
  const auto c2 = reg.Counter("a.c");
  EXPECT_NE(c1, c2);
  EXPECT_EQ(reg.Counter("a.b"), c1);

  reg.Add(c1, 3);
  reg.Add(c1);
  reg.Add(c2, 7);
  EXPECT_EQ(reg.counter(c1), 4u);
  EXPECT_EQ(reg.counter(c2), 7u);

  // Counter/gauge/histogram namespaces are independent.
  const auto g = reg.Gauge("a.b");
  const auto h = reg.Histo("a.b");
  reg.GaugeSet(g, -5);
  reg.GaugeAdd(g, 2);
  reg.Observe(h, 100);
  EXPECT_EQ(reg.gauge(g), -3);
  EXPECT_EQ(reg.histo(h).count(), 1u);
  EXPECT_EQ(reg.counter(c1), 4u);
}

TEST(MetricsRegistryTest, ResetValuesKeepsHandles) {
  MetricsRegistry reg;
  const auto c = reg.Counter("x");
  const auto g = reg.Gauge("y");
  const auto h = reg.Histo("z");
  reg.Add(c, 9);
  reg.GaugeSet(g, 9);
  reg.Observe(h, 9);
  reg.ResetValues();
  EXPECT_EQ(reg.counter(c), 0u);
  EXPECT_EQ(reg.gauge(g), 0);
  EXPECT_EQ(reg.histo(h).count(), 0u);
  // Same handles, still valid, still named.
  EXPECT_EQ(reg.Counter("x"), c);
  reg.Add(c, 2);
  EXPECT_EQ(reg.CounterView().at("x"), 2u);
}

// --- Histogram percentile accuracy ------------------------------------------

TEST(MetricsHistogramTest, PercentilesTrackExactQuantiles) {
  // A deterministic skewed distribution: values i*i for i in [1, 2000].
  MetricsRegistry reg;
  const auto h = reg.Histo("lat");
  std::vector<uint64_t> exact;
  for (uint64_t i = 1; i <= 2000; ++i) {
    const uint64_t v = i * i;
    reg.Observe(h, v);
    exact.push_back(v);
  }
  const Histogram& histo = reg.histo(h);
  ASSERT_EQ(histo.count(), exact.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const uint64_t truth = exact[static_cast<size_t>(q * (exact.size() - 1))];
    const uint64_t est = histo.Percentile(q);
    // Log-linear buckets with 16 sub-buckets guarantee <= ~6.25% relative
    // error; allow 7% for boundary effects.
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(truth), 0.07 * truth)
        << "q=" << q;
  }
}

// --- Snapshot / delta -------------------------------------------------------

TEST(MetricsSnapshotTest, DeltaSubtractsCountersAndKeepsGauges) {
  Simulator sim;
  Metrics m(&sim);
  const auto c = m.registry().Counter("ops");
  const auto g = m.registry().Gauge("depth");
  const auto h = m.registry().Histo("lat");
  m.registry().Add(c, 10);
  m.registry().GaugeSet(g, 3);
  m.registry().Observe(h, 100);
  const MetricsSnapshot before = m.TakeSnapshot();

  m.registry().Add(c, 5);
  m.registry().GaugeSet(g, 8);
  m.registry().Observe(h, 200);
  m.registry().Observe(h, 300);
  const MetricsSnapshot after = m.TakeSnapshot();

  const MetricsSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.Counter("ops"), 5u);
  EXPECT_EQ(delta.gauges.at("depth"), 8);  // level, not accumulation
  const Histogram* dh = delta.Histo("lat");
  ASSERT_NE(dh, nullptr);
  EXPECT_EQ(dh->count(), 2u);
  EXPECT_EQ(dh->sum(), 500u);
  // The full snapshots are unchanged by taking a delta.
  EXPECT_EQ(after.Counter("ops"), 15u);
  ASSERT_NE(after.Histo("lat"), nullptr);
  EXPECT_EQ(after.Histo("lat")->count(), 3u);
}

TEST(MetricsSnapshotTest, DeltaAcrossLiveRunMatchesInterval) {
  StorageStack stack(MqfsConfig());
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] { FsyncWorkload(stack, 4); });
  const MetricsSnapshot before = metrics.TakeSnapshot();
  stack.Run([&] {
    for (int i = 0; i < 3; ++i) {
      auto ino = stack.fs().Lookup("/m0");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, 0xAB)).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
  });
  const MetricsSnapshot delta = metrics.TakeSnapshot().DeltaSince(before);
  const Histogram* sync = delta.Histo("phase.fs.sync");
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->count(), 3u) << "delta window holds exactly the 3 interval fsyncs";
  EXPECT_GT(delta.Counter("pcie.mmio_writes"), 0u);
  EXPECT_EQ(delta.TotalViolations(), 0u);
}

// --- Monitor unit tests (no stack, standalone simulator) --------------------

class MonitorUnitTest : public ::testing::Test {
 protected:
  Simulator sim_;
  InvariantMonitors mon_{&sim_};
};

TEST_F(MonitorUnitTest, ReadFenceBeforeDrainHorizon) {
  mon_.OnReadFence(0);  // drained exactly at now() — legal
  EXPECT_EQ(mon_.total_violations(), 0u);
  mon_.OnReadFence(100);  // fence returned 100ns before the drain horizon
  EXPECT_EQ(mon_.violations(MonitorId::kPcieFenceOrdering), 1u);
}

TEST_F(MonitorUnitTest, CqeSlotAndPhaseChain) {
  int qp = 0;
  mon_.OnCqePost(&qp, 4, 0, true);
  mon_.OnCqePost(&qp, 4, 1, true);
  mon_.OnCqePost(&qp, 4, 2, true);
  mon_.OnCqePost(&qp, 4, 3, true);
  mon_.OnCqePost(&qp, 4, 0, false);  // wrap flips the phase
  EXPECT_EQ(mon_.total_violations(), 0u);
  mon_.OnCqePost(&qp, 4, 3, false);  // skipped slots 1 and 2
  EXPECT_EQ(mon_.violations(MonitorId::kNvmeCqeSlotOrder), 1u);
  int other = 0;
  mon_.OnCqePost(&other, 4, 2, true);  // fresh queue adopts its position
  EXPECT_EQ(mon_.violations(MonitorId::kNvmeCqeSlotOrder), 1u);
  mon_.OnCqePost(&other, 4, 3, false);  // wrong phase for this lap
  EXPECT_EQ(mon_.violations(MonitorId::kNvmeCqePhaseTag), 1u);
}

TEST_F(MonitorUnitTest, DoorbellFlushAndAdvance) {
  mon_.OnDoorbellRing(0, 1, 64, 10, 12, 10, 2, 0);
  EXPECT_EQ(mon_.total_violations(), 0u);
  mon_.OnDoorbellRing(0, 1, 64, 12, 14, 10, 2, 96);  // 96 WC bytes unflushed
  EXPECT_EQ(mon_.violations(MonitorId::kCcnvmeFlushBeforeDoorbell), 1u);
  mon_.OnDoorbellRing(0, 1, 64, 14, 17, 10, 2, 0);  // advanced 3, staged 2
  EXPECT_EQ(mon_.violations(MonitorId::kCcnvmeDoorbellMonotonic), 1u);
  mon_.OnDoorbellRing(0, 1, 64, 17, 80, 10, 63, 0);  // tail outside depth
  EXPECT_EQ(mon_.violations(MonitorId::kCcnvmePsqWindowBounds), 1u);
}

TEST_F(MonitorUnitTest, TxOrderPerQueue) {
  mon_.OnTxCommitted(0, 0, 5);
  mon_.OnTxCommitted(0, 0, 6);
  mon_.OnTxCommitted(0, 1, 3);  // other queue: independent chain
  mon_.OnTxCommitted(1, 0, 1);  // other device too
  EXPECT_EQ(mon_.total_violations(), 0u);
  mon_.OnTxCommitted(0, 0, 6);  // repeat — not strictly increasing
  EXPECT_EQ(mon_.violations(MonitorId::kCcnvmeTxIdMonotonic), 1u);

  mon_.OnTxCompleted(0, 0, 5, /*front_of_queue=*/true);
  EXPECT_EQ(mon_.violations(MonitorId::kCcnvmeInOrderCompletion), 0u);
  mon_.OnTxCompleted(0, 0, 7, /*front_of_queue=*/false);
  EXPECT_EQ(mon_.violations(MonitorId::kCcnvmeInOrderCompletion), 1u);
}

TEST_F(MonitorUnitTest, HeadMustStayInsideWindow) {
  mon_.OnHeadAdvance(0, 0, 64, 10, 14, 20);  // head 10->14 chasing tail 20
  EXPECT_EQ(mon_.total_violations(), 0u);
  mon_.OnHeadAdvance(0, 0, 64, 14, 25, 20);  // overran the tail
  EXPECT_EQ(mon_.violations(MonitorId::kCcnvmePsqWindowBounds), 1u);
}

TEST_F(MonitorUnitTest, CommitRecordRequiresAllMembers) {
  mon_.ExpectTxMembers(42, 3);
  mon_.OnTxMemberStaged(42);
  mon_.OnTxMemberStaged(42);
  mon_.OnTxMemberStaged(42);
  mon_.OnTxCommitRecord(42);
  EXPECT_EQ(mon_.total_violations(), 0u);

  mon_.ExpectTxMembers(43, 3);
  mon_.OnTxMemberStaged(43);
  mon_.OnTxCommitRecord(43);  // only 1 of 3 staged
  EXPECT_EQ(mon_.violations(MonitorId::kJournalCommitAfterBlocks), 1u);

  mon_.OnJournalCommitRecord(44, 0);
  mon_.OnJournalCommitRecord(45, 2);  // classic journal, 2 writes in flight
  EXPECT_EQ(mon_.violations(MonitorId::kJournalCommitAfterBlocks), 2u);
}

TEST_F(MonitorUnitTest, VolumeSealGateAndRecoveryWindow) {
  mon_.OnVolumeMemberSealed(7);
  mon_.OnVolumeMemberSealed(7);
  mon_.OnVolumeCommitRing(7, 2);
  EXPECT_EQ(mon_.total_violations(), 0u);
  mon_.OnVolumeMemberSealed(8);
  mon_.OnVolumeCommitRing(8, 2);  // rung with 1 of 2 seals
  EXPECT_EQ(mon_.violations(MonitorId::kVolumeSealBeforeCommit), 1u);

  mon_.OnRecoveryWindowScan(4, 4);
  EXPECT_EQ(mon_.violations(MonitorId::kRecoveryWindowScan), 0u);
  mon_.OnRecoveryWindowScan(4, 1);
  EXPECT_EQ(mon_.violations(MonitorId::kRecoveryWindowScan), 1u);
  EXPECT_FALSE(mon_.ViolationReport().empty());
}

// --- Clean runs never fire a monitor ----------------------------------------

TEST(MonitorCleanRunTest, MqfsWorkloadAndRecoveryAreViolationFree) {
  const StackConfig cfg = MqfsConfig();
  CrashImage image;
  {
    StorageStack stack(cfg);
    Metrics& metrics = stack.EnableMetrics();
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] { FsyncWorkload(stack, 8); });
    EXPECT_EQ(metrics.monitors().total_violations(), 0u);
    image = stack.CaptureCrashImage();
  }
  // Recovery of the un-unmounted image, monitored end to end.
  StorageStack after(cfg, image);
  Metrics& metrics = after.EnableMetrics();
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] { EXPECT_TRUE(after.fs().CheckConsistency().ok()); });
  EXPECT_EQ(metrics.monitors().total_violations(), 0u);
  // The recovery window scan actually ran under the monitor's eyes.
  const MetricsSnapshot snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.Counter("event.journal.recover"), 0u);
  const Histogram* recover = snap.Histo("phase.journal.recover");
  ASSERT_NE(recover, nullptr);
  EXPECT_GT(recover->count(), 0u);
}

TEST(MonitorCleanRunTest, ClassicJournalIsViolationFree) {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kClassic;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 2048;
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] { FsyncWorkload(stack, 8); });
  ASSERT_TRUE(stack.Unmount().ok());
  EXPECT_EQ(metrics.monitors().total_violations(), 0u);
}

TEST(MonitorCleanRunTest, StripedVolumeIsViolationFree) {
  StorageStack stack(StripedConfig(2));
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] { FsyncWorkload(stack, 8); });
  ASSERT_TRUE(stack.Unmount().ok());
  EXPECT_EQ(metrics.monitors().total_violations(), 0u)
      << metrics.monitors().ViolationReport()[0];
}

// --- Injected bugs are caught LIVE, during normal execution -----------------

// INJECTED BUG 1: with the volume commit gate skipped, the commit device's
// doorbell rings while member slices are still volatile. The crash explorer
// needs to enumerate crash states to see it; the monitor flags it on every
// single transaction of a plain, crash-free run.
TEST(MonitorInjectedBugTest, VolumeCommitGateCaughtLive) {
  StackConfig cfg = StripedConfig(2);
  cfg.volume.test_skip_volume_commit_gate = true;
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] { FsyncWorkload(stack, 8); });
  EXPECT_GT(metrics.monitors().violations(MonitorId::kVolumeSealBeforeCommit), 0u)
      << "live monitor failed to catch the inverted volume commit order";
  EXPECT_NE(metrics.monitors().last_detail(MonitorId::kVolumeSealBeforeCommit).find(
                "commit ring after"),
            std::string::npos);
}

// Runs fsyncs in small simulator slices until a power cut would leave a
// non-empty P-SQ window (doorbell rung, head not yet advanced).
CrashImage CaptureImageWithOpenWindow(const StackConfig& cfg) {
  StorageStack stack(cfg);
  CCNVME_CHECK(stack.MkfsAndMount().ok());
  int done = 0;
  stack.Spawn("w", [&] {
    for (int i = 0; i < 64; ++i) {
      auto ino = stack.fs().Create("/w" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      CCNVME_CHECK(
          stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, static_cast<uint8_t>(i))).ok());
      CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
    }
    done = 1;
  });
  while (done == 0) {
    stack.sim().RunFor(1000);
    CrashImage image = stack.CaptureCrashImage();
    const Pmr pmr(image.devices[0].pmr);
    if (!CcNvmeDriver::ScanUnfinished(pmr, cfg.num_queues, cfg.queue_depth).empty()) {
      return image;
    }
  }
  return CrashImage{};
}

// INJECTED BUG 2: recovery that skips the P-SQ window scan trusts every
// journal descriptor without re-validating checksums. The live monitor
// compares the in-doubt set against the recovered window and fires during
// the very mount that runs the broken recovery.
TEST(MonitorInjectedBugTest, SkippedWindowScanCaughtLive) {
  const StackConfig cfg = MqfsConfig();
  const CrashImage image = CaptureImageWithOpenWindow(cfg);
  ASSERT_FALSE(image.devices.empty()) << "never saw an open P-SQ window";

  // Correct recovery of the same image: monitored, zero violations.
  {
    StorageStack good(cfg, image);
    Metrics& metrics = good.EnableMetrics();
    ASSERT_TRUE(good.MountExisting().ok());
    EXPECT_EQ(metrics.monitors().total_violations(), 0u)
        << metrics.monitors().ViolationReport()[0];
  }

  StackConfig broken = cfg;
  broken.fs.test_skip_psq_window_scan = true;
  StorageStack bad(broken, image);
  Metrics& metrics = bad.EnableMetrics();
  ASSERT_TRUE(bad.MountExisting().ok());
  EXPECT_GT(metrics.monitors().violations(MonitorId::kRecoveryWindowScan), 0u)
      << "live monitor failed to catch the skipped window scan";
}

// --- Determinism: metrics + monitors change no virtual timestamps -----------

// Same fingerprint as trace_test.cc: virtual completion time of every op
// plus the final clock and total simulator event count. Metrics enable the
// tracer too, so this proves the whole observability stack is passive.
std::vector<uint64_t> SyncFingerprint(JournalKind kind, bool with_metrics) {
  StackConfig cfg;
  cfg.enable_ccnvme = kind == JournalKind::kMultiQueue;
  cfg.fs.journal = kind;
  cfg.fs.journal_blocks = 4096;
  StorageStack stack(cfg);
  if (with_metrics) {
    stack.EnableMetrics();
  }
  CCNVME_CHECK(stack.MkfsAndMount().ok());
  std::vector<uint64_t> fp;
  stack.Run([&] {
    for (int i = 0; i < 10; ++i) {
      auto ino = stack.fs().Create("/d_" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i + 1));
      CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
      CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
      fp.push_back(stack.sim().now());
    }
  });
  CCNVME_CHECK(stack.Unmount().ok());
  fp.push_back(stack.sim().now());
  fp.push_back(stack.sim().events_processed());
  return fp;
}

TEST(MetricsDeterminismTest, MetricsDoNotPerturbMqfs) {
  EXPECT_EQ(SyncFingerprint(JournalKind::kMultiQueue, false),
            SyncFingerprint(JournalKind::kMultiQueue, true));
}

TEST(MetricsDeterminismTest, MetricsDoNotPerturbClassicJournal) {
  EXPECT_EQ(SyncFingerprint(JournalKind::kClassic, false),
            SyncFingerprint(JournalKind::kClassic, true));
}

// --- Exporters --------------------------------------------------------------

TEST(MetricsExportTest, JsonRoundTripsThroughParser) {
  StorageStack stack(MqfsConfig());
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] { FsyncWorkload(stack, 4); });
  const MetricsSnapshot snap = metrics.TakeSnapshot();
  // The fig14 phases actually carry data in this configuration.
  for (TracePoint p : {TracePoint::kSyncTotal, TracePoint::kSyncAtomic}) {
    const Histogram* phase = snap.Histo(std::string("phase.") + TracePointName(p));
    ASSERT_NE(phase, nullptr) << TracePointName(p);
    EXPECT_GT(phase->count(), 0u) << TracePointName(p);
  }

  for (bool pretty : {true, false}) {
    SnapshotStats parsed;
    std::string error;
    ASSERT_TRUE(ParseSnapshotJson(ExportJson(snap, pretty), &parsed, &error)) << error;
    EXPECT_EQ(parsed.taken_at_ns, snap.taken_at_ns);
    EXPECT_EQ(parsed.counters, snap.counters);
    EXPECT_EQ(parsed.monitors.size(), kNumMonitors);
    EXPECT_EQ(parsed.TotalViolations(), 0u);
    for (const auto& [name, h] : snap.histograms) {
      const HistogramStat& ph = parsed.histograms.at(name);
      EXPECT_EQ(ph.count, h.count()) << name;
      EXPECT_EQ(ph.sum, h.sum()) << name;
      EXPECT_EQ(ph.p99, h.Percentile(0.99)) << name;
    }
  }
}

TEST(MetricsExportTest, PrometheusTextCarriesAllSeries) {
  StorageStack stack(MqfsConfig());
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] { FsyncWorkload(stack, 4); });
  SnapshotStats parsed;
  std::string error;
  ASSERT_TRUE(ParseSnapshotJson(ExportJson(metrics.TakeSnapshot()), &parsed, &error))
      << error;
  const std::string prom = ExportPrometheusText(parsed);

  for (const char* needle :
       {"# TYPE ccnvme_event_fs_sync counter",
        "# TYPE ccnvme_phase_fs_sync summary", "ccnvme_phase_fs_sync{quantile=\"0.99\"}",
        "ccnvme_phase_fs_sync_count", "# TYPE ccnvme_monitor_violations_total counter",
        "ccnvme_monitor_violations_total{monitor=\"volume.seal_before_commit\"} 0",
        "ccnvme_monitor_violations_total{monitor=\"recovery.window_scan\"} 0"}) {
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsExportTest, EnvVarAutoDumpAppendsJsonl) {
  const std::string path = ::testing::TempDir() + "/ccnvme_metrics_dump.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("CCNVME_METRICS", path.c_str(), 1), 0);
  for (int run = 0; run < 2; ++run) {
    StorageStack stack(MqfsConfig());
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] { FsyncWorkload(stack, 2); });
    ASSERT_TRUE(stack.Unmount().ok());
  }
  ::unsetenv("CCNVME_METRICS");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "auto-dump did not create " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<SnapshotStats> snaps;
  std::string error;
  ASSERT_TRUE(ParseSnapshotFile(buf.str(), &snaps, &error)) << error;
  ASSERT_EQ(snaps.size(), 2u) << "one JSONL line per run";
  for (const SnapshotStats& s : snaps) {
    EXPECT_GT(s.histograms.at("phase.fs.sync").count, 0u);
    EXPECT_GT(s.counters.at("pcie.mmio_writes"), 0u);
    EXPECT_EQ(s.TotalViolations(), 0u);
  }
}

}  // namespace
}  // namespace ccnvme
