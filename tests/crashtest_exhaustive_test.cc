// Systematic crash-state exploration tests (ctest label: "exhaustive").
//
// Unlike crashtest_test.cc — which samples random crash states — these
// tests walk EVERY consistency boundary of each workload's recorded event
// stream and enumerate/sample the uncertain-item choice space at each one:
// the paper's four Table-4 workloads plus two beyond-paper workloads must
// survive all of it, an injected recovery bug must NOT, and every failure
// must be deterministically reproducible from its replay artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "src/crashtest/crash_explorer.h"
#include "src/crashtest/crash_workloads.h"
#include "src/crashtest/replay_artifact.h"

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

StackConfig Ext4Config() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kClassic;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 2048;
  return cfg;
}

size_t TestThreads() {
  // At least 4 so the worker-pool code path (and its determinism) is
  // exercised even on small CI machines.
  const unsigned hw = std::thread::hardware_concurrency();
  return hw < 4 ? 4 : hw;
}

ExplorerOptions TestOptions() {
  ExplorerOptions opt;
  opt.seed = 42;
  opt.threads = TestThreads();
  return opt;
}

void ExpectAllPassed(const ExplorerReport& report) {
  EXPECT_TRUE(report.AllPassed()) << report.Summary();
  // Every workload ends with durable events, so there are real boundaries
  // beyond the trivial {0, N} pair, and the small per-boundary in-flight
  // windows mean most choice spaces fit the exhaustive budget.
  EXPECT_GT(report.boundaries, 2u);
  EXPECT_GT(report.boundaries_exhaustive, 0u);
  EXPECT_GT(report.states_checked, report.boundaries);
}

// The paper's four Table-4 workloads + two beyond-paper ones, each fully
// explored under MQFS over ccNVMe. Zero failures allowed.
class ExhaustiveMqfsTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Workloads, ExhaustiveMqfsTest,
                         ::testing::Values("create_delete", "generic_035", "generic_106",
                                           "generic_321", "truncate_shrink_grow",
                                           "overwrite_mixed"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '_') {
                               c = 'X';
                             }
                           }
                           return name;
                         });

TEST_P(ExhaustiveMqfsTest, AllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(MqfsConfig(), GetParam(), TestOptions()));
}

// The classic (non-ccNVMe) stack explored the same way: boundary
// enumeration must be journal-agnostic.
class ExhaustiveExt4Test : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Workloads, ExhaustiveExt4Test,
                         ::testing::Values("create_delete", "generic_035",
                                           "truncate_shrink_grow", "overwrite_mixed"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '_') {
                               c = 'X';
                             }
                           }
                           return name;
                         });

TEST_P(ExhaustiveExt4Test, AllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(Ext4Config(), GetParam(), TestOptions()));
}

// fatomic/fdataatomic all-or-nothing semantics, checked with the
// kFileContentOneOf oracle. Requires data journaling: only a journaled
// data block can be rolled back as a unit.
TEST(ExhaustiveAtomicTest, FatomicAllOrNothing) {
  StackConfig cfg = MqfsConfig();
  cfg.fs.data_journaling = true;
  ExpectAllPassed(ExploreWorkload(cfg, "atomic_overwrite", TestOptions()));
}

// Boundary completeness: every durable completion, flush submission and
// doorbell ring must open its own boundary, plus the two stream ends.
TEST(ExhaustiveCoverageTest, EveryDurabilityEventIsABoundary) {
  Result<CrashWorkload> workload = FindCrashWorkload("create_delete");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(MqfsConfig(), *workload);
  const std::vector<size_t> boundaries = ConsistencyBoundaries(rec.events);
  auto has = [&](size_t b) {
    return std::find(boundaries.begin(), boundaries.end(), b) != boundaries.end();
  };
  EXPECT_TRUE(has(0));
  EXPECT_TRUE(has(rec.events.size()));
  size_t durability_events = 0;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const BioOp op = rec.events[i].op;
    if (op == BioOp::kComplete || op == BioOp::kFlush || op == BioOp::kPmrDoorbell) {
      ++durability_events;
      EXPECT_TRUE(has(i + 1)) << "missing boundary after event " << i;
    }
  }
  EXPECT_GT(durability_events, 0u);
  // A ccNVMe workload exercises both domains: media completions AND
  // doorbell rings must both appear in the stream.
  const auto count_op = [&](BioOp op) {
    size_t n = 0;
    for (const BioEvent& ev : rec.events) {
      n += ev.op == op ? 1 : 0;
    }
    return n;
  };
  EXPECT_GT(count_op(BioOp::kComplete), 0u);
  EXPECT_GT(count_op(BioOp::kPmrDoorbell), 0u);
}

// --- Multi-device volumes ---------------------------------------------
//
// The volume-wide atomicity point is the commit device's P-SQDB doorbell:
// cuts anywhere — including between member seal doorbells and the commit
// ring — must recover all-or-nothing ACROSS devices.

StackConfig StripedConfig(uint16_t devices) {
  StackConfig cfg = MqfsConfig();
  cfg.num_devices = devices;
  cfg.volume.kind = VolumeKind::kStripe;
  // One-block chunks: consecutive fs blocks land on different members, so
  // every journal transaction fans out across devices.
  cfg.volume.chunk_blocks = 1;
  return cfg;
}

StackConfig MirroredConfig() {
  StackConfig cfg = MqfsConfig();
  cfg.num_devices = 2;
  cfg.volume.kind = VolumeKind::kMirror;
  return cfg;
}

TEST(ExhaustiveVolumeTest, StripedAllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(StripedConfig(2), "overwrite_mixed", TestOptions()));
}

TEST(ExhaustiveVolumeTest, StripedFatomicAllOrNothingAcrossDevices) {
  StackConfig cfg = StripedConfig(2);
  cfg.fs.data_journaling = true;
  ExpectAllPassed(ExploreWorkload(cfg, "atomic_overwrite", TestOptions()));
}

TEST(ExhaustiveVolumeTest, MirroredAllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(MirroredConfig(), "create_delete", TestOptions()));
}

// The recorded stream of a striped workload must interleave PMR doorbells
// from more than one member device, and each must open a boundary — this is
// what gives the explorer its cuts between member seals and the commit
// device's ring.
TEST(ExhaustiveVolumeTest, MemberDoorbellsAreBoundaries) {
  Result<CrashWorkload> workload = FindCrashWorkload("overwrite_mixed");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(StripedConfig(2), *workload);
  const std::vector<size_t> boundaries = ConsistencyBoundaries(rec.events);
  auto has = [&](size_t b) {
    return std::find(boundaries.begin(), boundaries.end(), b) != boundaries.end();
  };
  std::set<uint16_t> doorbell_devices;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    if (rec.events[i].op == BioOp::kPmrDoorbell) {
      doorbell_devices.insert(rec.events[i].device);
      EXPECT_TRUE(has(i + 1)) << "missing boundary after doorbell event " << i;
    }
  }
  EXPECT_GT(doorbell_devices.size(), 1u)
      << "striped transactions must ring doorbells on multiple members";
}

// INJECTED BUG: with the commit gate skipped the commit device's doorbell
// rings while the member slices are still volatile; the explorer must
// report a cross-device atomicity violation.
TEST(ExhaustiveVolumeInjectedBugTest, SkippedCommitGateIsCaught) {
  StackConfig cfg = StripedConfig(2);
  cfg.volume.test_skip_volume_commit_gate = true;
  const ExplorerReport report = ExploreWorkload(cfg, "overwrite_mixed", TestOptions());
  EXPECT_FALSE(report.AllPassed())
      << "explorer failed to catch the inverted volume commit order";
  EXPECT_FALSE(report.failures.empty());
}

// --- Multi-core workloads ---------------------------------------------
//
// SpawnOnCore puts two cores' worth of FS traffic in flight at once, so
// the recorded stream interleaves both hardware queues and the explorer's
// cuts land between one core's commit and the other's in-flight writes.

class ExhaustiveMultiCoreTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Workloads, ExhaustiveMultiCoreTest,
                         ::testing::Values("multicore_appends", "multicore_shared_fsync",
                                           "samecore_appends"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '_') {
                               c = 'X';
                             }
                           }
                           return name;
                         });

TEST_P(ExhaustiveMultiCoreTest, AllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(MqfsConfig(), GetParam(), TestOptions()));
}

// The multicore recording must actually have both cores in flight: both
// hardware queues ring P-SQDB doorbells, and the two cores' transactional
// writes interleave rather than fully serialize.
TEST(ExhaustiveMultiCoreTest, BothQueuesInFlight) {
  Result<CrashWorkload> workload = FindCrashWorkload("multicore_appends");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(MqfsConfig(), *workload);
  std::set<uint16_t> doorbell_qids;
  for (const BioEvent& ev : rec.events) {
    if (ev.op == BioOp::kPmrDoorbell) {
      doorbell_qids.insert(ev.qid);
    }
  }
  EXPECT_GT(doorbell_qids.size(), 1u)
      << "multicore workload must ring doorbells on more than one queue";
  // Interleaving: some event from queue 1 lands before the last queue-0
  // doorbell (a serialized run would fully order one core after the other).
  size_t first_q1 = rec.events.size();
  size_t last_q0 = 0;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    if (rec.events[i].op != BioOp::kPmrDoorbell) {
      continue;
    }
    if (rec.events[i].qid == 1 && i < first_q1) {
      first_q1 = i;
    }
    if (rec.events[i].qid == 0) {
      last_q0 = i;
    }
  }
  EXPECT_LT(first_q1, last_q0) << "cores did not interleave";
}

// Two actors on one core share queue 0. build_mu is released once a
// transaction's P-SQDB is rung, so the second actor's transaction is staged
// and rung while the first is still in flight: queue 0's second doorbell
// precedes the P-SQ-head store that retires the first transaction.
TEST(ExhaustiveMultiCoreTest, SameQueueTransactionsOverlap) {
  Result<CrashWorkload> workload = FindCrashWorkload("samecore_appends");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(MqfsConfig(), *workload);
  std::vector<size_t> q0_rings;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const BioEvent& ev = rec.events[i];
    EXPECT_EQ(ev.qid, 0u) << "both actors are bound to core 0";
    if (ev.op == BioOp::kPmrDoorbell) {
      q0_rings.push_back(i);
    }
  }
  ASSERT_GE(q0_rings.size(), 2u);
  const uint64_t first_tx = rec.events[q0_rings[0]].tx_id;
  size_t first_head_store = rec.events.size();
  for (size_t i = q0_rings[0] + 1; i < rec.events.size(); ++i) {
    const BioEvent& ev = rec.events[i];
    // The P-SQ-head store is the queue's one uncached (non-WC) PMR store
    // besides the doorbell.
    if (ev.op == BioOp::kPmrWrite && (ev.flags & kBioPmrWc) == 0 && ev.tx_id == first_tx) {
      first_head_store = i;
      break;
    }
  }
  ASSERT_LT(first_head_store, rec.events.size()) << "first transaction never completed";
  EXPECT_LT(q0_rings[1], first_head_store)
      << "the second transaction was rung only after the first became durable";
}

// INJECTED BUG: recovery skips the P-SQ window scan. With two transactions
// in flight on one P-SQ, the window holds both, and the explorer must still
// catch recovery trusting them unvalidated.
TEST(ExhaustiveMultiCoreInjectedBugTest, SameCoreSkippedWindowScanIsCaught) {
  StackConfig cfg = MqfsConfig();
  cfg.fs.test_skip_psq_window_scan = true;
  const ExplorerReport report = ExploreWorkload(cfg, "samecore_appends", TestOptions());
  EXPECT_FALSE(report.AllPassed())
      << "explorer failed to catch the skipped window scan on a shared queue";
  EXPECT_FALSE(report.failures.empty());
}

// INJECTED BUG: with cross-core ordering skipped, a follower fsync returns
// while a concurrent leader's commit — which does NOT cover the follower's
// write — is still in flight. The region fact the follower arms on return
// must be violated by some cut.
TEST(ExhaustiveMultiCoreInjectedBugTest, SkippedCrossCoreOrderIsCaught) {
  StackConfig cfg = MqfsConfig();
  cfg.fs.test_skip_cross_core_order = true;
  const ExplorerReport report =
      ExploreWorkload(cfg, "multicore_shared_fsync", TestOptions());
  EXPECT_FALSE(report.AllPassed())
      << "explorer failed to catch the skipped cross-core fsync ordering";
  EXPECT_FALSE(report.failures.empty());
}

// --- NVLog (NVM write-ahead log) ---------------------------------------
//
// The third durability architecture: fsync's durability point is an NVM
// flush+fence and the disk checkpoint drains in the background, so the
// explorer's cuts land inside the absorb-then-drain window — after the
// fence (facts armed, entries undrained), mid-drain, and across the
// atomic head-frontier truncation. Unfenced NVM stores are enumerated
// absent/present/torn at 8-byte-word granularity.

StackConfig NvlogConfig() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.nvm.size_bytes = 1 << 20;  // small tier keeps per-state image copies cheap
  return cfg;
}

class ExhaustiveNvlogTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Workloads, ExhaustiveNvlogTest,
                         ::testing::Values("nvlog_appends", "nvlog_overwrite_churn",
                                           "create_delete", "generic_035", "multicore_appends",
                                           "samecore_appends"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '_') {
                               c = 'X';
                             }
                           }
                           return name;
                         });

TEST_P(ExhaustiveNvlogTest, AllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(NvlogConfig(), GetParam(), TestOptions()));
}

// The NVLog recording must contain all three persistence domains, and every
// NVM persist barrier must open its own consistency boundary — that is what
// lets the explorer cut between an entry's stores and its fence.
TEST(ExhaustiveNvlogCoverageTest, NvmFencesAreBoundaries) {
  Result<CrashWorkload> workload = FindCrashWorkload("nvlog_appends");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(NvlogConfig(), *workload);
  const std::vector<size_t> boundaries = ConsistencyBoundaries(rec.events);
  auto has = [&](size_t b) {
    return std::find(boundaries.begin(), boundaries.end(), b) != boundaries.end();
  };
  size_t nvm_writes = 0, nvm_fences = 0, completes = 0;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const BioOp op = rec.events[i].op;
    if (op == BioOp::kNvmFence) {
      ++nvm_fences;
      EXPECT_TRUE(has(i + 1)) << "missing boundary after NVM fence event " << i;
    }
    nvm_writes += op == BioOp::kNvmWrite ? 1 : 0;
    completes += op == BioOp::kComplete ? 1 : 0;
  }
  EXPECT_GT(nvm_writes, 0u) << "no NVM stores recorded";
  EXPECT_GT(nvm_fences, 0u) << "no NVM persist barriers recorded";
  EXPECT_GT(completes, 0u) << "background drain issued no disk I/O";
}

// INJECTED BUG: with the persist barrier skipped, fsync arms its fact while
// the log entry is still volatile — a cut before the drain finds neither the
// checkpoint on media nor a durable entry to replay. The explorer must
// report it (the nvm.log_drain_order monitor catches the same bug live;
// tests/nvm_test.cc).
TEST(ExhaustiveNvlogInjectedBugTest, SkippedNvlogFenceIsCaught) {
  StackConfig cfg = NvlogConfig();
  cfg.fs.test_skip_nvlog_fence = true;
  ExplorerOptions opt = TestOptions();
  opt.emit_artifacts = true;
  opt.artifact_dir = ".";  // the build dir ctest runs in; gitignored
  const ExplorerReport report = ExploreWorkload(cfg, "nvlog_appends", opt);
  EXPECT_FALSE(report.AllPassed())
      << "explorer failed to catch the skipped NVM persist barrier";
  ASSERT_FALSE(report.failures.empty());

  // The artifact must round-trip the NVM tier config (size, enablement,
  // the fence-skip knob) and replay to the exact same failure — this is
  // what makes a CI upload of crash_artifact_nvlog_* actionable.
  const ExplorerFailure& failure = report.failures[0];
  ASSERT_FALSE(failure.artifact_path.empty());
  Result<ReplayArtifact> art = ReplayArtifact::ReadFile(failure.artifact_path);
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  EXPECT_TRUE(art->config.nvm.enabled);
  EXPECT_EQ(art->config.nvm.size_bytes, cfg.nvm.size_bytes);
  EXPECT_TRUE(art->config.fs.test_skip_nvlog_fence);
  Result<std::string> replayed = ReplayArtifactCheck(*art);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, failure.message);
}

// INJECTED BUG, with two appenders on one core: one appender's copy into the
// ring overlaps the other's (skipped) barrier, and the drainer claims the
// unfenced entries. The explorer must catch it.
TEST(ExhaustiveNvlogInjectedBugTest, SameCoreSkippedNvlogFenceIsCaught) {
  StackConfig cfg = NvlogConfig();
  cfg.fs.test_skip_nvlog_fence = true;
  const ExplorerReport report = ExploreWorkload(cfg, "samecore_appends", TestOptions());
  EXPECT_FALSE(report.AllPassed())
      << "explorer failed to catch the skipped NVM persist barrier with overlapping appenders";
  EXPECT_FALSE(report.failures.empty());
}

// Injected recovery bug: skipping the P-SQ window scan makes recovery
// trust every journal descriptor without re-validating member checksums,
// so it replays half-persisted transactions. The explorer must catch it.
TEST(ExhaustiveInjectedBugTest, SkippedWindowScanIsCaught) {
  StackConfig cfg = MqfsConfig();
  cfg.fs.test_skip_psq_window_scan = true;
  const ExplorerReport report = ExploreWorkload(cfg, "overwrite_mixed", TestOptions());
  EXPECT_FALSE(report.AllPassed())
      << "explorer failed to catch the deliberately broken recovery path";
  EXPECT_FALSE(report.failures.empty());
}

// A forced failure must produce a replay artifact, and replaying that
// artifact must reproduce the exact same failure string.
TEST(ExhaustiveReplayTest, ArtifactReproducesFailure) {
  StackConfig cfg = MqfsConfig();
  cfg.fs.test_skip_psq_window_scan = true;
  ExplorerOptions opt = TestOptions();
  opt.emit_artifacts = true;
  opt.artifact_dir = ".";  // the build dir ctest runs in; gitignored
  const ExplorerReport report = ExploreWorkload(cfg, "overwrite_mixed", opt);
  ASSERT_FALSE(report.failures.empty());

  const ExplorerFailure& failure = report.failures[0];
  ASSERT_FALSE(failure.artifact_path.empty());
  Result<ReplayArtifact> art = ReplayArtifact::ReadFile(failure.artifact_path);
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  EXPECT_EQ(art->workload, "overwrite_mixed");
  EXPECT_EQ(art->failure, failure.message);

  // JSON round-trip is exact.
  Result<ReplayArtifact> round = ReplayArtifact::FromJson(art->ToJson());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->ToJson(), art->ToJson());

  // Deterministic replay: the same failure string, twice in a row.
  Result<std::string> replayed = ReplayArtifactCheck(*art);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, failure.message);
  Result<std::string> again = ReplayArtifactCheck(*art);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *replayed);
}

// The parallel executor must produce a byte-identical report to the serial
// reference execution — failures included, in the same order.
TEST(ExhaustiveDeterminismTest, ParallelMatchesSerialByteForByte) {
  Result<CrashWorkload> workload = FindCrashWorkload("generic_035");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(MqfsConfig(), *workload);

  ExplorerOptions serial = TestOptions();
  serial.threads = 1;
  ExplorerOptions parallel = TestOptions();
  parallel.threads = TestThreads();

  const ExplorerReport a = ExploreRecording(rec, serial);
  const ExplorerReport b = ExploreRecording(rec, parallel);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.states_checked, b.states_checked);
  EXPECT_EQ(a.total_failures, b.total_failures);

  // Same property on a failing configuration, where the report actually
  // carries failure lines.
  StackConfig broken = MqfsConfig();
  broken.fs.test_skip_psq_window_scan = true;
  const CrashRecording bad = RecordWorkload(broken, *workload);
  const ExplorerReport c = ExploreRecording(bad, serial);
  const ExplorerReport d = ExploreRecording(bad, parallel);
  EXPECT_EQ(c.Summary(), d.Summary());
}

// --- KV-SSD path (fourth durability architecture) ---------------------------

// Tight FTL geometry so the recorded streams carry GC migration and map
// writeback traffic, putting boundaries inside the FTL's own windows — not
// just between host commands.
StackConfig ExhaustiveKvConfig() {
  StackConfig cfg;
  cfg.num_queues = 1;
  cfg.enable_ccnvme = false;
  cfg.kv.enabled = true;
  cfg.kv.dir_slots = 64;
  cfg.kv.shadow_slots = 16;
  cfg.kv.flash_pages = 1024;
  cfg.kv.pages_per_block = 16;
  cfg.kv.total_lpns = 768;
  cfg.kv.map_cache_segments = 2;
  return cfg;
}

// Every boundary of both KV workloads must recover: a cut before a Store's
// COMMIT fence shows the old value, after it the new one, and the
// shadow-replay + directory-walk attach never reports an inconsistency.
class ExhaustiveKvTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Workloads, ExhaustiveKvTest,
                         ::testing::Values("kv_put_get", "kv_overwrite_churn"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '_') {
                               c = 'X';
                             }
                           }
                           return name;
                         });

TEST_P(ExhaustiveKvTest, AllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(ExhaustiveKvConfig(), GetParam(), TestOptions()));
}

// INJECTED BUG: committing the directory meta word without first fencing
// the shadow map-entry breaks map+data atomicity. The explorer must catch
// it, and the crash_artifact_kv_* files it drops in the build dir (which CI
// uploads next to the fs/nvlog artifacts) must round-trip the KV geometry
// and replay to the exact same failure.
TEST(ExhaustiveKvInjectedBugTest, SkippedShadowCommitEmitsFtlArtifacts) {
  StackConfig cfg = ExhaustiveKvConfig();
  cfg.kv.test_skip_ftl_shadow_commit = true;
  ExplorerOptions opt = TestOptions();
  opt.emit_artifacts = true;
  opt.artifact_dir = ".";  // the build dir ctest runs in; gitignored
  const ExplorerReport report = ExploreWorkload(cfg, "kv_put_get", opt);
  EXPECT_FALSE(report.AllPassed())
      << "explorer failed to catch the skipped shadow commit";
  ASSERT_FALSE(report.failures.empty());

  const ExplorerFailure& failure = report.failures[0];
  ASSERT_FALSE(failure.artifact_path.empty());
  Result<ReplayArtifact> art = ReplayArtifact::ReadFile(failure.artifact_path);
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  EXPECT_TRUE(art->config.kv.enabled);
  EXPECT_TRUE(art->config.kv.test_skip_ftl_shadow_commit);
  EXPECT_EQ(art->config.kv.flash_pages, cfg.kv.flash_pages);
  EXPECT_EQ(art->config.kv.total_lpns, cfg.kv.total_lpns);
  Result<std::string> replayed = ReplayArtifactCheck(*art);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(*replayed, failure.message);
}

}  // namespace
}  // namespace ccnvme
