// Tests for the CrashMonkey-style tester: MQFS (and the baselines) must
// recover correctly across randomized crash states of the paper's four
// workloads (Table 4, scaled down for unit-test time; the bench runs the
// full 1000 points per workload).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/crashtest/crash_explorer.h"
#include "src/crashtest/crash_monkey.h"
#include "src/crashtest/crash_state.h"
#include "src/crashtest/crash_workloads.h"

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

void ExpectAllPass(const CrashTestReport& report) {
  EXPECT_TRUE(report.AllPassed())
      << report.passed << "/" << report.crash_points << " passed; first failures:\n"
      << (report.failures.empty() ? "(none)" : report.failures[0]);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << f;
  }
}

TEST(CrashMonkeyMqfsTest, CreateDelete) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/1);
  ExpectAllPass(monkey.Run(CrashMonkey::CreateDelete(), 60));
}

TEST(CrashMonkeyMqfsTest, Generic035Rename) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/2);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic035(), 60));
}

TEST(CrashMonkeyMqfsTest, Generic106LinkUnlink) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/3);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic106(), 60));
}

TEST(CrashMonkeyMqfsTest, Generic321DirFsync) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/4);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic321(), 60));
}

TEST(CrashMonkeyExt4Test, CreateDelete) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/5);
  ExpectAllPass(monkey.Run(CrashMonkey::CreateDelete(), 40));
}

TEST(CrashMonkeyExt4Test, Generic035Rename) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/6);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic035(), 40));
}

TEST(CrashMonkeyExt4Test, TruncateShrinkGrow) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/11);
  ExpectAllPass(monkey.Run(CrashMonkey::TruncateShrinkGrow(), 40));
}

TEST(CrashMonkeyExt4Test, OverwriteMixed) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/12);
  ExpectAllPass(monkey.Run(CrashMonkey::OverwriteMixed(), 40));
}

TEST(CrashMonkeyMqfsTest, TruncateShrinkGrow) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/8);
  ExpectAllPass(monkey.Run(CrashMonkey::TruncateShrinkGrow(), 60));
}

TEST(CrashMonkeyMqfsTest, OverwriteMixed) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/9);
  ExpectAllPass(monkey.Run(CrashMonkey::OverwriteMixed(), 60));
}

// Every journaled configuration must pass the paper's most error-prone
// workload (rename overwrite).
class CrashAllJournalsTest : public ::testing::TestWithParam<JournalKind> {};

INSTANTIATE_TEST_SUITE_P(Journals, CrashAllJournalsTest,
                         ::testing::Values(JournalKind::kClassic, JournalKind::kHorae,
                                           JournalKind::kCcNvmeJbd2,
                                           JournalKind::kMultiQueue,
                                           JournalKind::kNvlog),
                         [](const ::testing::TestParamInfo<JournalKind>& param_info) {
                           switch (param_info.param) {
                             case JournalKind::kClassic:
                               return "Ext4";
                             case JournalKind::kHorae:
                               return "HoraeFS";
                             case JournalKind::kCcNvmeJbd2:
                               return "Jbd2OverCcNvme";
                             case JournalKind::kMultiQueue:
                               return "MQFS";
                             case JournalKind::kNvlog:
                               return "NVLog";
                             default:
                               return "other";
                           }
                         });

TEST_P(CrashAllJournalsTest, RenameOverwrite) {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = GetParam() == JournalKind::kMultiQueue ||
                      GetParam() == JournalKind::kCcNvmeJbd2;
  cfg.fs.journal = GetParam();
  cfg.fs.journal_areas = GetParam() == JournalKind::kMultiQueue ? 2 : 1;
  cfg.fs.journal_blocks = 2048 * cfg.fs.journal_areas;
  if (GetParam() == JournalKind::kNvlog) {
    cfg.nvm.size_bytes = 1 << 20;  // small tier keeps per-state image copies cheap
  }
  CrashMonkey monkey(cfg, /*seed=*/10);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic035(), 40));
}

TEST(CrashMonkeyVolatileCacheTest, MqfsOnFlashDrive) {
  // The Intel 750 has a volatile cache without PLP: the flush-barrier
  // commit path is what keeps transactions durable here.
  StackConfig cfg = MqfsConfig();
  cfg.ssd = SsdConfig::Intel750();
  CrashMonkey monkey(cfg, /*seed=*/7);
  ExpectAllPass(monkey.Run(CrashMonkey::CreateDelete(), 40));
}

TEST(CrashMonkeyMqfsTest, CrashDuringRecoveryIsIdempotent) {
  // Double-crash: power-cut a workload, then power-cut the *recovery* at
  // random points. Journal replay must be idempotent — every subsequent
  // mount must still converge to a consistent state with the fsync'd data.
  const StackConfig cfg = MqfsConfig();
  const Buffer payload(kFsBlockSize, 0x5E);
  CrashImage first_crash;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      for (int i = 0; i < 5; ++i) {
        auto ino = stack.fs().Create("/dc_" + std::to_string(i));
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(stack.fs().Write(*ino, 0, payload).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
    });
    first_crash = stack.CaptureCrashImage();
  }

  // Record the write stream of a full recovery.
  std::vector<BioEvent> recovery_writes;
  {
    StorageStack rec(cfg, first_crash);
    rec.SetRecorder([&](const BioEvent& ev) {
      if (ev.op == BioOp::kWrite) {
        recovery_writes.push_back(ev);
      }
    });
    ASSERT_TRUE(rec.MountExisting().ok());
  }
  ASSERT_FALSE(recovery_writes.empty()) << "recovery should write something";

  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    // Crash the recovery after a random prefix of its writes. Recovery I/O
    // is fully synchronous (each write completes before the next is
    // submitted, on a PLP drive), so the physical crash states are exactly
    // the prefixes of the recorded stream.
    const size_t cut = rng.Uniform(recovery_writes.size() + 1);
    CrashImage second = first_crash;
    for (size_t i = 0; i < cut; ++i) {
      const BioEvent& ev = recovery_writes[i];
      const size_t blocks = ev.data.size() / kFsBlockSize;
      for (size_t b = 0; b < blocks; ++b) {
        second.media()[ev.lba + b] =
            MediaBlock(std::span<const uint8_t>(ev.data).subspan(b * kFsBlockSize, kFsBlockSize));
      }
    }
    StorageStack again(cfg, second);
    ASSERT_TRUE(again.MountExisting().ok()) << "second recovery failed (trial " << trial << ")";
    again.Run([&] {
      EXPECT_TRUE(again.fs().CheckConsistency().ok()) << "trial " << trial;
      for (int i = 0; i < 5; ++i) {
        auto ino = again.fs().Lookup("/dc_" + std::to_string(i));
        ASSERT_TRUE(ino.ok()) << "fsync'd file lost after double crash, trial " << trial;
        Buffer out(payload.size());
        ASSERT_TRUE(again.fs().Read(*ino, 0, out).ok());
        EXPECT_EQ(out, payload) << "trial " << trial;
      }
    });
  }
}

// --- Recorded crash stream pins ---------------------------------------------
// The crash explorer replays the recorded event stream, so any change to
// which layer records a bio, in what order, or with which fields shifts every
// crash state it builds. These pins hold the stream of three architectures
// to exact values: the event count and an FNV-1a hash over each event's
// (op, seq, lba, flags, tx_id, qid, device, payload).

CrashRecording RecordNamed(const StackConfig& cfg, const std::string& workload_name) {
  Result<CrashWorkload> workload = FindCrashWorkload(workload_name);
  CCNVME_CHECK(workload.ok()) << workload_name;
  return RecordWorkload(cfg, *workload);
}

uint64_t StreamHash(const CrashRecording& rec) {
  uint64_t h = Fnv1a({});
  for (const BioEvent& ev : rec.events) {
    const uint64_t fields[] = {static_cast<uint64_t>(ev.op), ev.seq, ev.lba, ev.flags,
                               ev.tx_id, ev.qid, ev.device, ev.data.size()};
    Buffer header(sizeof(fields));
    for (size_t i = 0; i < std::size(fields); ++i) PutU64(header, 8 * i, fields[i]);
    h = Fnv1a(ev.data, Fnv1a(header, h));
  }
  return h;
}

size_t CountEvents(const CrashRecording& rec, const std::function<bool(const BioEvent&)>& pred) {
  return static_cast<size_t>(std::count_if(rec.events.begin(), rec.events.end(), pred));
}

TEST(CrashStreamPinTest, ClassicJbd2OnVolatileCache) {
  StackConfig cfg = Ext4Config();
  cfg.ssd = SsdConfig::Intel750();
  const CrashRecording rec = RecordNamed(cfg, "create_delete");
  EXPECT_GT(CountEvents(rec, [](const BioEvent& ev) { return ev.op == BioOp::kFlush; }), 0u);
  EXPECT_GT(CountEvents(rec, [](const BioEvent& ev) { return (ev.flags & kBioFua) != 0; }), 0u);
  EXPECT_EQ(rec.events.size(), 142u);
  EXPECT_EQ(StreamHash(rec), 16688603817425731016ull);
}

TEST(CrashStreamPinTest, MqfsTransactionMembers) {
  const CrashRecording rec = RecordNamed(MqfsConfig(), "overwrite_mixed");
  EXPECT_GT(CountEvents(rec, [](const BioEvent& ev) {
              return ev.op == BioOp::kWrite && ev.flags == kBioTx;
            }),
            0u);
  EXPECT_EQ(rec.events.size(), 105u);
  EXPECT_EQ(StreamHash(rec), 7911055701380786702ull);
}

TEST(CrashStreamPinTest, NvlogTier) {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.nvm.size_bytes = 1 << 20;
  const CrashRecording rec = RecordNamed(cfg, "nvlog_overwrite_churn");
  EXPECT_GT(CountEvents(rec, [](const BioEvent& ev) { return ev.op == BioOp::kNvmWrite; }), 0u);
  EXPECT_EQ(rec.events.size(), 215u);
  EXPECT_EQ(StreamHash(rec), 4700758392594665463ull);
}

// --- Crash states share the base image's blocks ------------------------------

// FNV-1a of a page image's bytes, absent pages as zeros.
uint64_t PagesFnv(const PageImage& image, uint64_t h) {
  Buffer bytes(image.size());
  image.Read(0, bytes);
  return Fnv1a(bytes, h);
}

uint64_t ImageFingerprint(const CrashImage& image) {
  uint64_t h = Fnv1a({});
  for (const DeviceImage& dev : image.devices) {
    for (const auto& [block, data] : dev.media) {
      uint8_t key[8];
      PutU64(key, 0, block);
      h = Fnv1a(data, Fnv1a(key, h));
    }
    h = PagesFnv(dev.pmr, h);
  }
  return PagesFnv(image.nvm, h);
}

// Every state of a boundary is built from the one base image, whose blocks
// the states share (and the explorer's worker threads with them): a block an
// event tears or overwrites must be copied, never changed in place. The base
// is given a block at every address the workload writes, so each torn or
// present write lands on a shared block.
TEST(CrashStateSharingTest, BuildingEveryPlanOfATornBoundaryLeavesTheBaseUnchanged) {
  StackConfig cfg = Ext4Config();
  cfg.ssd = SsdConfig::Intel750();
  CrashRecording rec = RecordNamed(cfg, "create_delete");
  for (const BioEvent& ev : rec.events) {
    if (ev.op == BioOp::kWrite) {
      for (size_t b = 0; b < ev.data.size() / kFsBlockSize; ++b) {
        rec.base.devices[ev.device].media.emplace(ev.lba + b,
                                                  MediaBlock(Buffer(kFsBlockSize, 0xB5)));
      }
    }
  }
  const uint64_t base = ImageFingerprint(rec.base);
  const ExplorerOptions options;
  for (const size_t index : ConsistencyBoundaries(rec.events)) {
    const std::vector<UncertainItem> items = CollectUncertain(rec, index);
    const BoundaryPlans boundary = PlansForBoundary(rec, index, options);
    const auto tears_media = [&](const CrashPlan& plan) {
      for (size_t k = 0; k < plan.choices.size(); ++k) {
        if (!items[k].is_pmr && !items[k].is_nvm && plan.choices[k] >= kChoiceTornBase) {
          return true;
        }
      }
      return false;
    };
    if (std::none_of(boundary.plans.begin(), boundary.plans.end(), tears_media)) {
      continue;
    }
    size_t shared = 0;
    for (const CrashPlan& plan : boundary.plans) {
      const CrashImage state = BuildCrashState(rec, plan, options.seed);
      for (const auto& [block, data] : state.media()) {
        shared += data.SharesBytesWith(rec.base.media().at(block)) ? 1 : 0;
      }
    }
    EXPECT_GT(shared, 0u) << "states copied blocks no event wrote";
    EXPECT_EQ(ImageFingerprint(rec.base), base) << "boundary " << index;
    return;
  }
  FAIL() << "no boundary tears a media write";
}

// Gives the recording's base a page (of 0xB5 bytes) under every NVM or PMR
// byte the recording stores to, so each store a crash state applies lands
// on a page the state shares with the base.
void GiveBasePagesUnderEveryStore(CrashRecording& rec) {
  const Buffer fill(PageImage::kPageSize, 0xB5);
  for (const BioEvent& ev : rec.events) {
    PageImage* pages = nullptr;
    if (ev.op == BioOp::kNvmWrite) {
      pages = &rec.base.nvm;
    } else if (ev.op == BioOp::kPmrWrite || ev.op == BioOp::kPmrDoorbell) {
      pages = &rec.base.devices[ev.device].pmr;
    }
    if (pages == nullptr || ev.data.empty()) {
      continue;
    }
    for (size_t p = ev.lba / PageImage::kPageSize;
         p <= (ev.lba + ev.data.size() - 1) / PageImage::kPageSize; ++p) {
      if (!pages->page(p)) {
        const size_t at = p * PageImage::kPageSize;
        pages->Write(at, std::span<const uint8_t>(fill).first(
                             std::min(fill.size(), pages->size() - at)));
      }
    }
  }
}

// Cuts the recording right after each store |selects| (inside its unfenced
// window, so the store is uncertain there), builds every plan of each such
// cut whose plans tear the store, and checks that the recording's base keeps
// its bytes. Returns how many cuts it built; |shared| counts the NVM and PMR
// pages the states still shared with the base.
size_t BuildEveryPlanOfEachTornStore(const CrashRecording& rec,
                                     const std::function<bool(const BioEvent&)>& selects,
                                     size_t* shared) {
  const uint64_t base = ImageFingerprint(rec.base);
  const ExplorerOptions options;
  size_t built = 0;
  *shared = 0;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    if (!selects(rec.events[i])) {
      continue;
    }
    const std::vector<UncertainItem> items = CollectUncertain(rec, i + 1);
    const BoundaryPlans cut = PlansForBoundary(rec, i + 1, options);
    const auto tears = [&](const CrashPlan& plan) {
      for (size_t k = 0; k < plan.choices.size(); ++k) {
        if (items[k].event_index == i && plan.choices[k] >= kChoiceTornBase) {
          return true;
        }
      }
      return false;
    };
    if (std::none_of(cut.plans.begin(), cut.plans.end(), tears)) {
      continue;
    }
    for (const CrashPlan& plan : cut.plans) {
      const CrashImage state = BuildCrashState(rec, plan, options.seed);
      for (size_t p = 0; p < state.nvm.page_count(); ++p) {
        *shared += state.nvm.page(p) && state.nvm.SamePage(rec.base.nvm, p) ? 1 : 0;
      }
      for (size_t d = 0; d < state.devices.size(); ++d) {
        const PageImage& pmr = state.devices[d].pmr;
        for (size_t p = 0; p < pmr.page_count(); ++p) {
          *shared += pmr.page(p) && pmr.SamePage(rec.base.devices[d].pmr, p) ? 1 : 0;
        }
      }
    }
    built++;
  }
  EXPECT_EQ(ImageFingerprint(rec.base), base);
  return built;
}

TEST(CrashStateSharingTest, BuildingEveryPlanOfATornNvmStoreLeavesTheBaseUnchanged) {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.nvm.size_bytes = 1 << 20;
  CrashRecording rec = RecordNamed(cfg, "nvlog_overwrite_churn");
  GiveBasePagesUnderEveryStore(rec);
  size_t shared = 0;
  EXPECT_GT(BuildEveryPlanOfEachTornStore(
                rec, [](const BioEvent& ev) { return ev.op == BioOp::kNvmWrite; }, &shared),
            0u)
      << "no cut tears an NVM store";
  EXPECT_GT(shared, 0u) << "states copied pages no event wrote";
}

TEST(CrashStateSharingTest, BuildingEveryPlanOfATornPsqStoreLeavesTheBaseUnchanged) {
  CrashRecording rec = RecordNamed(MqfsConfig(), "create_delete");
  GiveBasePagesUnderEveryStore(rec);
  size_t shared = 0;
  EXPECT_GT(BuildEveryPlanOfEachTornStore(rec,
                                          [](const BioEvent& ev) {
                                            return ev.op == BioOp::kPmrWrite &&
                                                   (ev.flags & kBioPmrWc) != 0;
                                          },
                                          &shared),
            0u)
      << "no cut tears a P-SQ store";
  EXPECT_GT(shared, 0u) << "states copied pages no event wrote";
}

// KV Stores stage sub-page values in PMR staging frames with WC stores, so
// a cut before the next fence tears them.
TEST(CrashStateSharingTest, BuildingEveryPlanOfATornStagingFrameStoreLeavesTheBaseUnchanged) {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.kv.enabled = true;
  cfg.kv.dir_slots = 32;
  cfg.kv.shadow_slots = 4;
  cfg.kv.flash_pages = 32;
  cfg.kv.pages_per_block = 8;
  cfg.kv.total_lpns = 32;
  cfg.kv.map_cache_segments = 1;
  cfg.kv.gc_free_blocks_low = 2;
  CrashRecording rec = RecordNamed(cfg, "kv_packed_churn");
  const KvPmrLayout layout = KvSuperblock::ForConfig(cfg.kv).Layout(rec.base.pmr().size());
  GiveBasePagesUnderEveryStore(rec);
  size_t shared = 0;
  EXPECT_GT(BuildEveryPlanOfEachTornStore(
                rec,
                [&](const BioEvent& ev) {
                  return ev.op == BioOp::kPmrWrite && ev.lba >= layout.frame_off &&
                         ev.lba < layout.dir_off;
                },
                &shared),
            0u)
      << "no cut tears a staging-frame store";
  EXPECT_GT(shared, 0u) << "states copied pages no event wrote";
}

}  // namespace
}  // namespace ccnvme
