// File-system tests, parameterized over the four journal configurations
// (Ext4-classic, HoraeFS, Ext4-NJ, MQFS/ccNVMe): namespace operations, file
// I/O, fsync durability across simulated power cuts, journal recovery,
// checkpointing under journal pressure, and MQFS-specific semantics.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/stack.h"
#include "src/jbd2/jbd2.h"
#include "src/mqfs/mq_journal.h"

namespace ccnvme {
namespace {

StackConfig ConfigFor(JournalKind kind, uint16_t num_queues = 1) {
  StackConfig cfg;
  cfg.num_queues = num_queues;
  cfg.fs.journal = kind;
  cfg.fs.journal_areas = kind == JournalKind::kMultiQueue ? num_queues : 1;
  cfg.fs.journal_blocks = 2048 * cfg.fs.journal_areas;  // 8 MB per area
  return cfg;
}

Buffer Pattern(uint8_t seed, size_t len) {
  Buffer out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 37);
  }
  return out;
}

class FsJournalTest : public ::testing::TestWithParam<JournalKind> {};

INSTANTIATE_TEST_SUITE_P(AllJournals, FsJournalTest,
                         ::testing::Values(JournalKind::kNone, JournalKind::kClassic,
                                           JournalKind::kHorae, JournalKind::kCcNvmeJbd2,
                                           JournalKind::kMultiQueue),
                         [](const ::testing::TestParamInfo<JournalKind>& param_info) {
                           switch (param_info.param) {
                             case JournalKind::kNone:
                               return "Ext4NJ";
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
                           }
                           return "unknown";
                         });

TEST_P(FsJournalTest, MkfsMountUnmount) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  ASSERT_TRUE(stack.Unmount().ok());
}

TEST_P(FsJournalTest, CreateWriteReadRoundTrip) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/hello.txt");
    ASSERT_TRUE(ino.ok());
    const Buffer data = Pattern(1, 10000);  // multi-block, unaligned tail
    ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
    Buffer out(10000);
    ASSERT_TRUE(stack.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, data);
    auto size = stack.fs().FileSize(*ino);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 10000u);
  });
}

TEST_P(FsJournalTest, OverwriteMiddleOfFile) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/f");
    ASSERT_TRUE(ino.ok());
    Buffer data = Pattern(2, 3 * kFsBlockSize);
    ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
    const Buffer patch = Pattern(9, 1000);
    ASSERT_TRUE(stack.fs().Write(*ino, 5000, patch).ok());
    std::copy(patch.begin(), patch.end(), data.begin() + 5000);
    Buffer out(data.size());
    ASSERT_TRUE(stack.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, data);
  });
}

TEST_P(FsJournalTest, LargeFileUsesIndirectBlocks) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/big");
    ASSERT_TRUE(ino.ok());
    // 64 direct-exceeding blocks (48 direct + 16 indirect).
    const Buffer chunk = Pattern(3, kFsBlockSize);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(stack.fs().Append(*ino, chunk).ok());
    }
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    Buffer out(kFsBlockSize);
    ASSERT_TRUE(stack.fs().Read(*ino, 60 * kFsBlockSize, out).ok());
    EXPECT_EQ(out, chunk);
  });
}

TEST_P(FsJournalTest, DirectoryOperations) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    ASSERT_TRUE(stack.fs().Mkdir("/a").ok());
    ASSERT_TRUE(stack.fs().Mkdir("/a/b").ok());
    ASSERT_TRUE(stack.fs().Create("/a/b/c.txt").ok());
    EXPECT_TRUE(stack.fs().Lookup("/a/b/c.txt").ok());
    EXPECT_FALSE(stack.fs().Lookup("/a/b/missing").ok());
    EXPECT_FALSE(stack.fs().Mkdir("/a").ok()) << "duplicate mkdir must fail";
    EXPECT_FALSE(stack.fs().Rmdir("/a").ok()) << "non-empty rmdir must fail";

    auto entries = stack.fs().ListDir("/a");
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ((*entries)[0].name, "b");
    EXPECT_EQ((*entries)[0].type, FileType::kDirectory);

    ASSERT_TRUE(stack.fs().Unlink("/a/b/c.txt").ok());
    ASSERT_TRUE(stack.fs().Rmdir("/a/b").ok());
    ASSERT_TRUE(stack.fs().Rmdir("/a").ok());
    EXPECT_FALSE(stack.fs().Lookup("/a").ok());
  });
}

TEST_P(FsJournalTest, ManyFilesInOneDirectory) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    // Spill across multiple directory blocks (64 entries per block).
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(stack.fs().Create("/f" + std::to_string(i)).ok());
    }
    auto entries = stack.fs().ListDir("/");
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), 200u);
    for (int i = 0; i < 200; i += 2) {
      ASSERT_TRUE(stack.fs().Unlink("/f" + std::to_string(i)).ok());
    }
    entries = stack.fs().ListDir("/");
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), 100u);
    EXPECT_TRUE(stack.fs().CheckConsistency().ok());
  });
}

TEST_P(FsJournalTest, RenameMovesAndReplaces) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    ASSERT_TRUE(stack.fs().Mkdir("/src").ok());
    ASSERT_TRUE(stack.fs().Mkdir("/dst").ok());
    auto a = stack.fs().Create("/src/a");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(stack.fs().Write(*a, 0, Pattern(5, 100)).ok());
    ASSERT_TRUE(stack.fs().Rename("/src/a", "/dst/b").ok());
    EXPECT_FALSE(stack.fs().Lookup("/src/a").ok());
    auto b = stack.fs().Lookup("/dst/b");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, *a);

    // Rename-overwrite: the target's old inode must be freed.
    auto c = stack.fs().Create("/dst/c");
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(stack.fs().Rename("/dst/b", "/dst/c").ok());
    auto now = stack.fs().Lookup("/dst/c");
    ASSERT_TRUE(now.ok());
    EXPECT_EQ(*now, *a);
    EXPECT_TRUE(stack.fs().CheckConsistency().ok());
  });
}

TEST_P(FsJournalTest, HardLinksShareData) {
  StorageStack stack(ConfigFor(GetParam()));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto a = stack.fs().Create("/orig");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(stack.fs().Write(*a, 0, Pattern(7, 500)).ok());
    ASSERT_TRUE(stack.fs().Link("/orig", "/alias").ok());
    auto b = stack.fs().Lookup("/alias");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
    ASSERT_TRUE(stack.fs().Unlink("/orig").ok());
    // Data still reachable through the remaining link.
    Buffer out(500);
    ASSERT_TRUE(stack.fs().Read(*b, 0, out).ok());
    EXPECT_EQ(out, Pattern(7, 500));
  });
}

TEST_P(FsJournalTest, FsyncSurvivesCrash) {
  const StackConfig cfg = ConfigFor(GetParam());
  CrashImage image;
  InodeNum ino = 0;
  const Buffer data = Pattern(11, 2 * kFsBlockSize);
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto res = stack.fs().Create("/durable.txt");
      ASSERT_TRUE(res.ok());
      ino = *res;
      ASSERT_TRUE(stack.fs().Write(ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(ino).ok());
    });
    image = stack.CaptureCrashImage();  // power cut here — no unmount
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto found = after.fs().Lookup("/durable.txt");
    ASSERT_TRUE(found.ok()) << "fsync'd file lost after crash";
    EXPECT_EQ(*found, ino);
    Buffer out(data.size());
    ASSERT_TRUE(after.fs().Read(*found, 0, out).ok());
    EXPECT_EQ(out, data) << "fsync'd content lost after crash";
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST_P(FsJournalTest, UnsyncedDataMayVanishButFsStaysConsistent) {
  const StackConfig cfg = ConfigFor(GetParam());
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto synced = stack.fs().Create("/synced");
      ASSERT_TRUE(synced.ok());
      ASSERT_TRUE(stack.fs().Write(*synced, 0, Pattern(1, 100)).ok());
      ASSERT_TRUE(stack.fs().Fsync(*synced).ok());
      // Never synced: may or may not survive, but must not corrupt.
      auto unsynced = stack.fs().Create("/unsynced");
      ASSERT_TRUE(unsynced.ok());
      ASSERT_TRUE(stack.fs().Write(*unsynced, 0, Pattern(2, 100)).ok());
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    EXPECT_TRUE(after.fs().Lookup("/synced").ok());
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST_P(FsJournalTest, JournalWrapUnderPressure) {
  // A small journal forces repeated checkpoints; the FS must stay correct
  // through wraparound and be recoverable afterwards.
  StackConfig cfg = ConfigFor(GetParam());
  cfg.fs.journal_blocks = 128 * cfg.fs.journal_areas;  // tiny: 512 KB/area
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/wrap");
      ASSERT_TRUE(ino.ok());
      const Buffer chunk = Pattern(4, kFsBlockSize);
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(stack.fs().Append(*ino, chunk).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/wrap");
    ASSERT_TRUE(ino.ok());
    auto size = after.fs().FileSize(*ino);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 300ull * kFsBlockSize);
    Buffer out(kFsBlockSize);
    ASSERT_TRUE(after.fs().Read(*ino, 299 * kFsBlockSize, out).ok());
    EXPECT_EQ(out, Pattern(4, kFsBlockSize));
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST_P(FsJournalTest, CleanUnmountRemountsWithoutRecovery) {
  const StackConfig cfg = ConfigFor(GetParam());
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/persist");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Pattern(8, 1234)).ok());
    });
    ASSERT_TRUE(stack.Unmount().ok());
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/persist");
    ASSERT_TRUE(ino.ok());
    Buffer out(1234);
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Pattern(8, 1234));
  });
}

TEST_P(FsJournalTest, ConcurrentWritersOnSeparateFiles) {
  const JournalKind kind = GetParam();
  StorageStack stack(ConfigFor(kind, /*num_queues=*/4));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  int done = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    stack.Spawn("writer" + std::to_string(q), [&, q] {
      const std::string path = "/t" + std::to_string(q);
      auto ino = stack.fs().Create(path);
      ASSERT_TRUE(ino.ok());
      const Buffer chunk = Pattern(static_cast<uint8_t>(q), kFsBlockSize);
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(stack.fs().Append(*ino, chunk).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
      done++;
    }, q);
  }
  stack.sim().Run();
  EXPECT_EQ(done, 4);
  stack.Run([&] { EXPECT_TRUE(stack.fs().CheckConsistency().ok()); });
}

// --- MQFS-specific behaviour ------------------------------------------------

TEST(MqfsTest, FatomicReturnsBeforeDurability) {
  StorageStack stack(ConfigFor(JournalKind::kMultiQueue));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/atomic");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Pattern(1, kFsBlockSize)).ok());
    const uint64_t t0 = stack.sim().now();
    ASSERT_TRUE(stack.fs().Fatomic(*ino).ok());
    const uint64_t fatomic_ns = stack.sim().now() - t0;

    ASSERT_TRUE(stack.fs().Write(*ino, 0, Pattern(2, kFsBlockSize)).ok());
    const uint64_t t1 = stack.sim().now();
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    const uint64_t fsync_ns = stack.sim().now() - t1;
    // §7.5.2: fatomic ~10 us vs fsync ~22 us on the 905P.
    EXPECT_LT(fatomic_ns, fsync_ns);
    EXPECT_LT(fatomic_ns, 20'000u);
  });
}

TEST(MqfsTest, FatomicContentSurvivesCrashAfterDeviceDrains) {
  const StackConfig cfg = ConfigFor(JournalKind::kMultiQueue);
  CrashImage image;
  const Buffer data = Pattern(42, kFsBlockSize);
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/f");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fatomic(*ino).ok());
    });
    // Run() drains the simulation, so the background pipeline completed.
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/f");
    ASSERT_TRUE(ino.ok());
    Buffer out(data.size());
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, data);
  });
}

TEST(MqfsTest, FdataatomicSkipsInodeWhenSizeUnchanged) {
  StorageStack stack(ConfigFor(JournalKind::kMultiQueue));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/d");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Pattern(1, kFsBlockSize)).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());

    // Overwrite without size change.
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Pattern(2, kFsBlockSize)).ok());
    auto* mq = dynamic_cast<MqJournal*>(stack.fs().journal());
    ASSERT_NE(mq, nullptr);
    const uint64_t t0 = stack.sim().now();
    ASSERT_TRUE(stack.fs().Fdataatomic(*ino).ok());
    const uint64_t lat = stack.sim().now() - t0;
    EXPECT_LT(lat, 20'000u);
  });
}

TEST(MqfsTest, PerQueueJournalAreasAreUsed) {
  StorageStack stack(ConfigFor(JournalKind::kMultiQueue, /*num_queues=*/4));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  for (uint16_t q = 0; q < 4; ++q) {
    stack.Spawn("w" + std::to_string(q), [&, q] {
      auto ino = stack.fs().Create("/q" + std::to_string(q));
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Pattern(static_cast<uint8_t>(q), 64)).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }, q);
  }
  stack.sim().Run();
  auto* mq = dynamic_cast<MqJournal*>(stack.fs().journal());
  ASSERT_NE(mq, nullptr);
  EXPECT_GE(mq->transactions(), 4u);
}

TEST(MqfsTest, CrashWithMultipleQueuesRecoversByTxId) {
  StackConfig cfg = ConfigFor(JournalKind::kMultiQueue, /*num_queues=*/4);
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    for (uint16_t q = 0; q < 4; ++q) {
      stack.Spawn("w" + std::to_string(q), [&, q] {
        for (int i = 0; i < 10; ++i) {
          const std::string path = "/q" + std::to_string(q) + "_" + std::to_string(i);
          auto ino = stack.fs().Create(path);
          ASSERT_TRUE(ino.ok());
          ASSERT_TRUE(stack.fs().Write(*ino, 0, Pattern(static_cast<uint8_t>(q + i), 256)).ok());
          ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        }
      }, q);
    }
    stack.sim().Run();
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    for (uint16_t q = 0; q < 4; ++q) {
      for (int i = 0; i < 10; ++i) {
        const std::string path = "/q" + std::to_string(q) + "_" + std::to_string(i);
        EXPECT_TRUE(after.fs().Lookup(path).ok()) << path << " lost";
      }
    }
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(MqfsTest, BlockReuseAfterDirectoryDeleteIsSafe) {
  // §5.4: journal a directory block, delete the directory (freeing the
  // block), reuse it for file data, crash, recover — the data must NOT be
  // overwritten by the stale journaled directory content.
  StackConfig cfg = ConfigFor(JournalKind::kMultiQueue);
  cfg.fs.journal_blocks = 256;  // small so stale copies matter
  CrashImage image;
  Buffer reused_data = Pattern(0xEE, kFsBlockSize);
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      ASSERT_TRUE(stack.fs().Mkdir("/dir").ok());
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(stack.fs().Create("/dir/f" + std::to_string(i)).ok());
      }
      ASSERT_TRUE(stack.fs().FsyncPath("/dir").ok());  // journals dir blocks
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(stack.fs().Unlink("/dir/f" + std::to_string(i)).ok());
      }
      ASSERT_TRUE(stack.fs().Rmdir("/dir").ok());  // frees + revokes dir block
      ASSERT_TRUE(stack.fs().FsyncPath("/").ok());

      // Allocate aggressively so the freed block is reused for data.
      auto ino = stack.fs().Create("/reuse");
      ASSERT_TRUE(ino.ok());
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(stack.fs().Append(*ino, reused_data).ok());
      }
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/reuse");
    ASSERT_TRUE(ino.ok());
    for (int i = 0; i < 10; ++i) {
      Buffer out(kFsBlockSize);
      ASSERT_TRUE(after.fs().Read(*ino, static_cast<uint64_t>(i) * kFsBlockSize, out).ok());
      EXPECT_EQ(out, reused_data) << "stale journal replay corrupted reused block " << i;
    }
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(MqfsTest, ShadowPagingImprovesSharedMetadataConcurrency) {
  auto run = [&](bool shadow) {
    StackConfig cfg = ConfigFor(JournalKind::kMultiQueue, /*num_queues=*/4);
    cfg.fs.metadata_shadow_paging = shadow;
    StorageStack stack(cfg);
    Status st = stack.MkfsAndMount();
    CCNVME_CHECK(st.ok());
    uint64_t start = 0;
    uint64_t elapsed = 0;
    int done = 0;
    // All files live in "/", so fsyncs contend on the root directory block
    // and neighbouring inode-table blocks.
    for (uint16_t q = 0; q < 4; ++q) {
      stack.Spawn("w" + std::to_string(q), [&, q] {
        if (start == 0) {
          start = stack.sim().now();
        }
        for (int i = 0; i < 15; ++i) {
          auto ino = stack.fs().Create("/s" + std::to_string(q) + "_" + std::to_string(i));
          CCNVME_CHECK(ino.ok());
          Status w = stack.fs().Write(*ino, 0, Pattern(1, 64));
          CCNVME_CHECK(w.ok());
          Status f = stack.fs().Fsync(*ino);
          CCNVME_CHECK(f.ok());
        }
        done++;
        if (done == 4) {
          elapsed = stack.sim().now() - start;
        }
      }, q);
    }
    stack.sim().Run();
    return elapsed;
  };
  const uint64_t with_shadow = run(true);
  const uint64_t without_shadow = run(false);
  EXPECT_LT(with_shadow, without_shadow)
      << "shadow paging should reduce page-conflict serialization";
}

// --- The superblock names its journal ---------------------------------------

TEST(SuperblockTest, RecordsTheJournalKind) {
  for (JournalKind kind : {JournalKind::kNone, JournalKind::kClassic, JournalKind::kHorae,
                           JournalKind::kCcNvmeJbd2, JournalKind::kMultiQueue,
                           JournalKind::kNvlog}) {
    Superblock sb;
    sb.total_blocks = 65536;
    sb.journal = kind;
    Buffer raw(kFsBlockSize);
    sb.Serialize(raw);
    auto back = Superblock::Parse(raw);
    ASSERT_TRUE(back.ok()) << JournalKindName(kind);
    EXPECT_EQ(back->journal, kind);
  }
}

// A superblock written before the field existed (its bytes 36..39 zero)
// is refused, not mounted under a guessed journal.
TEST(SuperblockTest, RefusesASuperblockThatNamesNoJournal) {
  Superblock sb;
  sb.total_blocks = 65536;
  Buffer raw(kFsBlockSize);
  sb.Serialize(raw);
  PutU32(raw, 36, 0);
  PutU64(raw, 64, Fnv1a(std::span<const uint8_t>(raw).first(64)));
  auto back = Superblock::Parse(raw);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("no journal kind"), std::string::npos)
      << back.status().message();
}

TEST(SuperblockTest, MountRefusesAnImageFormattedForAnotherJournal) {
  StorageStack stack(ConfigFor(JournalKind::kMultiQueue));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  ASSERT_TRUE(stack.Unmount().ok());
  const CrashImage image = stack.CaptureCrashImage();
  StorageStack classic(ConfigFor(JournalKind::kClassic), image);
  const Status st = classic.MountExisting();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("formatted for the multi_queue journal"), std::string::npos)
      << st.message();
  StorageStack mqfs(ConfigFor(JournalKind::kMultiQueue), image);
  EXPECT_TRUE(mqfs.MountExisting().ok());
}

TEST(RadixTreeTest, InsertFindErase) {
  RadixTree<int> tree;
  EXPECT_EQ(tree.Find(42), nullptr);
  tree.GetOrCreate(42) = 7;
  ASSERT_NE(tree.Find(42), nullptr);
  EXPECT_EQ(*tree.Find(42), 7);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Erase(42));
  EXPECT_FALSE(tree.Erase(42));
  EXPECT_EQ(tree.Find(42), nullptr);
}

TEST(RadixTreeTest, ForEachInKeyOrder) {
  RadixTree<int> tree;
  const std::vector<uint64_t> keys = {9999999, 1, 512, 4096, 77, 1ull << 40};
  for (uint64_t k : keys) {
    tree.GetOrCreate(k) = static_cast<int>(k & 0xFF);
  }
  std::vector<uint64_t> seen;
  tree.ForEach([&](uint64_t k, int&) { seen.push_back(k); });
  std::vector<uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(seen, want);
}

TEST(RadixTreeTest, DenseRange) {
  RadixTree<uint64_t> tree;
  for (uint64_t k = 0; k < 2000; ++k) {
    tree.GetOrCreate(k) = k * 3;
  }
  EXPECT_EQ(tree.size(), 2000u);
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_NE(tree.Find(k), nullptr);
    EXPECT_EQ(*tree.Find(k), k * 3);
  }
}

}  // namespace
}  // namespace ccnvme
