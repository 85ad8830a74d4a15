// JBD2-focused tests: group commit batching, ordering-point traffic
// (classic PREFLUSH/FUA vs. Horae), checkpoint-driven log wraparound,
// revocation on block reuse, the JBD2-over-ccNVMe commit mode, and
// unmount/remount on one stack.
#include <gtest/gtest.h>

#include "src/harness/stack.h"
#include "src/jbd2/jbd2.h"

namespace ccnvme {
namespace {

StackConfig Config(JournalKind kind, uint64_t journal_blocks = 2048,
                   uint16_t queues = 1) {
  StackConfig cfg;
  cfg.num_queues = queues;
  cfg.enable_ccnvme = kind == JournalKind::kMultiQueue || kind == JournalKind::kCcNvmeJbd2;
  cfg.fs.journal = kind;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = journal_blocks;
  return cfg;
}

Jbd2Journal* GetJbd2(ExtFs& fs) { return dynamic_cast<Jbd2Journal*>(fs.journal()); }

TEST(Jbd2Test, GroupCommitBatchesConcurrentFsyncs) {
  StorageStack stack(Config(JournalKind::kClassic, 2048, 4));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  int done = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    stack.Spawn("w" + std::to_string(q), [&, q] {
      auto ino = stack.fs().Create("/g" + std::to_string(q));
      ASSERT_TRUE(ino.ok());
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(stack.fs().Append(*ino, Buffer(kFsBlockSize, 1)).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
      done++;
    }, q);
  }
  stack.sim().Run();
  EXPECT_EQ(done, 4);
  Jbd2Journal* j = GetJbd2(stack.fs());
  ASSERT_NE(j, nullptr);
  // 40 fsyncs (+4 creates' worth of metadata) must have shared commits.
  EXPECT_LT(j->commits(), 44u) << "no group commit happened";
  EXPECT_GT(j->commits(), 0u);
}

TEST(Jbd2Test, ClassicPaysOrderingPointsHoraeDoesNot) {
  // On a volatile-cache drive the classic commit issues a real PREFLUSH;
  // Horae does not (its control path orders writes instead).
  auto flushes = [](JournalKind kind) {
    StackConfig cfg = Config(kind);
    cfg.ssd = SsdConfig::Intel750();
    StorageStack stack(cfg);
    Status st = stack.MkfsAndMount();
    CCNVME_CHECK(st.ok());
    const uint64_t before = stack.ssd().flushes_served();
    stack.Run([&] {
      auto ino = stack.fs().Create("/f");
      CCNVME_CHECK(ino.ok());
      for (int i = 0; i < 5; ++i) {
        Status w = stack.fs().Append(*ino, Buffer(kFsBlockSize, 1));
        CCNVME_CHECK(w.ok());
        Status f = stack.fs().Fsync(*ino);
        CCNVME_CHECK(f.ok());
      }
    });
    return stack.ssd().flushes_served() - before;
  };
  EXPECT_GT(flushes(JournalKind::kClassic), flushes(JournalKind::kHorae));
}

TEST(Jbd2Test, CheckpointWrapsLogAndRemainsRecoverable) {
  // A journal of 128 blocks forces many checkpoints; afterwards a crash
  // must still recover the newest fsync'd state.
  StackConfig cfg = Config(JournalKind::kClassic, 128);
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/wrap");
      ASSERT_TRUE(ino.ok());
      for (int i = 0; i < 120; ++i) {
        ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize,
                                     static_cast<uint8_t>(i))).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
      Jbd2Journal* j = GetJbd2(stack.fs());
      ASSERT_NE(j, nullptr);
      EXPECT_GT(j->checkpoints(), 0u) << "log never wrapped";
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/wrap");
    ASSERT_TRUE(ino.ok());
    Buffer out(kFsBlockSize);
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Buffer(kFsBlockSize, 119));
  });
}

TEST(Jbd2Test, RevocationPreventsStaleReplayOverReusedBlock) {
  // Journal a directory block, free it, reuse it for plain data, crash:
  // replay must not clobber the data with the stale directory content.
  StackConfig cfg = Config(JournalKind::kClassic, 512);
  CrashImage image;
  const Buffer reuse(kFsBlockSize, 0xD7);
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      ASSERT_TRUE(stack.fs().Mkdir("/dir").ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(stack.fs().Create("/dir/f" + std::to_string(i)).ok());
      }
      ASSERT_TRUE(stack.fs().FsyncPath("/dir").ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(stack.fs().Unlink("/dir/f" + std::to_string(i)).ok());
      }
      ASSERT_TRUE(stack.fs().Rmdir("/dir").ok());
      ASSERT_TRUE(stack.fs().FsyncPath("/").ok());
      auto ino = stack.fs().Create("/fresh");
      ASSERT_TRUE(ino.ok());
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(stack.fs().Append(*ino, reuse).ok());
      }
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/fresh");
    ASSERT_TRUE(ino.ok());
    for (int i = 0; i < 8; ++i) {
      Buffer out(kFsBlockSize);
      ASSERT_TRUE(after.fs().Read(*ino, static_cast<uint64_t>(i) * kFsBlockSize, out).ok());
      EXPECT_EQ(out, reuse) << "block " << i << " clobbered by stale journal replay";
    }
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(Jbd2Test, OverCcNvmeSkipsCommitRecordTraffic) {
  // JBD2-over-ccNVMe eliminates the commit record: a commit of the same
  // fsync writes one less block than classic.
  auto block_ios = [](JournalKind kind) {
    StorageStack stack(Config(kind));
    Status st = stack.MkfsAndMount();
    CCNVME_CHECK(st.ok());
    uint64_t delta = 0;
    stack.Run([&] {
      auto ino = stack.fs().Create("/c");
      CCNVME_CHECK(ino.ok());
      Status w = stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, 1));
      CCNVME_CHECK(w.ok());
      Status f = stack.fs().Fsync(*ino);
      CCNVME_CHECK(f.ok());
      // Steady-state fsync:
      w = stack.fs().Write(*ino, kFsBlockSize, Buffer(kFsBlockSize, 2));
      CCNVME_CHECK(w.ok());
      const TrafficStats before = stack.link().SnapshotTraffic();
      f = stack.fs().Fsync(*ino);
      CCNVME_CHECK(f.ok());
      delta = (stack.link().SnapshotTraffic() - before).block_ios;
    });
    return delta;
  };
  const uint64_t classic = block_ios(JournalKind::kClassic);
  const uint64_t over_cc = block_ios(JournalKind::kCcNvmeJbd2);
  EXPECT_EQ(over_cc + 1, classic) << "the commit record should be the only difference";
}

TEST(Jbd2Test, CleanRemountAfterHeavyChurnAllJournals) {
  for (JournalKind kind : {JournalKind::kClassic, JournalKind::kHorae,
                           JournalKind::kCcNvmeJbd2}) {
    StackConfig cfg = Config(kind, 512);
    CrashImage image;
    {
      StorageStack stack(cfg);
      ASSERT_TRUE(stack.MkfsAndMount().ok());
      stack.Run([&] {
        for (int i = 0; i < 30; ++i) {
          const std::string path = "/churn" + std::to_string(i % 7);
          auto existing = stack.fs().Lookup(path);
          if (existing.ok()) {
            ASSERT_TRUE(stack.fs().Unlink(path).ok());
          }
          auto ino = stack.fs().Create(path);
          ASSERT_TRUE(ino.ok());
          ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(1000, static_cast<uint8_t>(i))).ok());
          ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        }
      });
      ASSERT_TRUE(stack.Unmount().ok());
      image = stack.CaptureCrashImage();
    }
    StorageStack after(cfg, image);
    ASSERT_TRUE(after.MountExisting().ok());
    after.Run([&] { EXPECT_TRUE(after.fs().CheckConsistency().ok()); });
  }
}

// Remounting on the SAME stack replaces the journal while the simulator
// lives on, so Unmount must stop kjournald first: a commit thread left
// parked on the freed journal's lock would unwind through freed memory when
// the stack is torn down (AddressSanitizer reports it as use-after-free).
TEST(Jbd2Test, SameStackRemountStopsCommitThread) {
  for (JournalKind kind : {JournalKind::kClassic, JournalKind::kHorae}) {
    StorageStack stack(Config(kind));
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    auto write_and_sync = [&](const std::string& path, uint8_t fill) {
      stack.Run([&] {
        auto ino = stack.fs().Create(path);
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, fill)).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      });
    };
    write_and_sync("/before", 0x11);
    ASSERT_TRUE(stack.Unmount().ok());
    ASSERT_TRUE(stack.MountExisting().ok());
    write_and_sync("/after", 0x22);
    ASSERT_TRUE(stack.Unmount().ok());
    ASSERT_TRUE(stack.MountExisting().ok());
    stack.Run([&] {
      EXPECT_TRUE(stack.fs().CheckConsistency().ok());
      for (const auto& [path, fill] : {std::pair<std::string, uint8_t>{"/before", 0x11},
                                       std::pair<std::string, uint8_t>{"/after", 0x22}}) {
        auto ino = stack.fs().Lookup(path);
        ASSERT_TRUE(ino.ok()) << path;
        Buffer data(kFsBlockSize, 0);
        ASSERT_TRUE(stack.fs().Read(*ino, 0, data).ok()) << path;
        EXPECT_EQ(data, Buffer(kFsBlockSize, fill)) << path;
      }
    });
    ASSERT_TRUE(stack.Unmount().ok());
  }
}

}  // namespace
}  // namespace ccnvme
