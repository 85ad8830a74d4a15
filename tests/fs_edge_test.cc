// Edge cases and failure paths of the file system and its substrates:
// error returns, limits, big sync operations (P-SQ overflow path), the
// fdataatomic fallback on non-atomic journals, allocator spreading, and
// randomized operation sequences checked for consistency.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/harness/stack.h"
#include "src/mqfs/mq_journal.h"

namespace ccnvme {
namespace {

StackConfig MqfsConfig(uint16_t queues = 1) {
  StackConfig cfg;
  cfg.num_queues = queues;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = queues;
  cfg.fs.journal_blocks = 4096 * queues;
  return cfg;
}

TEST(FsEdgeTest, LookupMissingPathsFail) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    EXPECT_FALSE(stack.fs().Lookup("/nope").ok());
    EXPECT_FALSE(stack.fs().Lookup("/a/b/c").ok());
    EXPECT_FALSE(stack.fs().Unlink("/nope").ok());
    EXPECT_FALSE(stack.fs().Rmdir("/nope").ok());
    EXPECT_FALSE(stack.fs().Rename("/nope", "/x").ok());
  });
}

TEST(FsEdgeTest, DuplicateCreateFails) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    ASSERT_TRUE(stack.fs().Create("/f").ok());
    EXPECT_FALSE(stack.fs().Create("/f").ok());
    EXPECT_FALSE(stack.fs().Link("/f", "/f").ok());
  });
}

TEST(FsEdgeTest, NameTooLongRejected) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    const std::string long_name(100, 'x');
    EXPECT_FALSE(stack.fs().Create("/" + long_name).ok());
  });
}

TEST(FsEdgeTest, ReadPastEofFails) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/f");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(100, 1)).ok());
    Buffer out(200);
    EXPECT_FALSE(stack.fs().Read(*ino, 0, out).ok());
    EXPECT_FALSE(stack.fs().Read(*ino, 50, out).ok());
    Buffer ok_read(100);
    EXPECT_TRUE(stack.fs().Read(*ino, 0, ok_read).ok());
  });
}

TEST(FsEdgeTest, FileTooLargeRejected) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/huge");
    ASSERT_TRUE(ino.ok());
    const uint64_t past_max = kMaxFileBlocks * kFsBlockSize;
    EXPECT_FALSE(stack.fs().Write(*ino, past_max, Buffer(1, 1)).ok());
  });
}

TEST(FsEdgeTest, SparseFileReadsZeros) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/sparse");
    ASSERT_TRUE(ino.ok());
    // Write at offset 5 blocks, leaving a hole.
    ASSERT_TRUE(stack.fs().Write(*ino, 5 * kFsBlockSize, Buffer(100, 0xAB)).ok());
    Buffer hole(kFsBlockSize);
    ASSERT_TRUE(stack.fs().Read(*ino, 0, hole).ok());
    EXPECT_EQ(hole, Buffer(kFsBlockSize, 0));
  });
}

TEST(FsEdgeTest, BigSyncUsesOverflowPathAndSurvivesCrash) {
  // A 1 MB fsync (256 data blocks) exceeds the per-transaction cap; the
  // overflow goes through the plain NVMe path but fsync still guarantees
  // durability of everything.
  StackConfig cfg = MqfsConfig();
  CrashImage image;
  Buffer big(1024 * 1024);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 131);
  }
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/big");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, big).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/big");
    ASSERT_TRUE(ino.ok());
    Buffer out(big.size());
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, big);
  });
}

TEST(FsEdgeTest, FatomicOnExt4DegeneratesToFsyncButWorks) {
  StackConfig cfg;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kClassic;
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/f");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(100, 1)).ok());
    EXPECT_TRUE(stack.fs().Fatomic(*ino).ok());     // falls back to fsync
    EXPECT_TRUE(stack.fs().Fdataatomic(*ino).ok());
  });
}

TEST(FsEdgeTest, DataBlocksSpreadPerFile) {
  // Each file allocates from its own block-group region (ext4 locality), so
  // concurrent appenders do not all contend on one block-bitmap block.
  StorageStack stack(MqfsConfig(4));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  std::set<BlockNo> bitmap_blocks;
  stack.Run([&] {
    for (int f = 0; f < 4; ++f) {
      auto ino = stack.fs().Create("/bg" + std::to_string(f));
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, 1)).ok());
      auto res = stack.fs().allocator()->AllocBlock(static_cast<uint64_t>(*ino) *
                                                    kFsBlockSize * 8);
      ASSERT_TRUE(res.ok());
      bitmap_blocks.insert(res->bitmap_block);
    }
  });
  EXPECT_GE(bitmap_blocks.size(), 3u) << "file data allocations were not spread";
}

TEST(FsEdgeTest, UnlinkFreesSpaceForReuse) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    // Prime the root directory's data block so it doesn't count as growth.
    ASSERT_TRUE(stack.fs().Create("/prime").ok());
    const uint64_t before = stack.fs().allocator()->blocks_in_use();
    auto ino = stack.fs().Create("/tmp");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(10 * kFsBlockSize, 1)).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    EXPECT_GT(stack.fs().allocator()->blocks_in_use(), before);
    ASSERT_TRUE(stack.fs().Unlink("/tmp").ok());
    ASSERT_TRUE(stack.fs().FsyncPath("/").ok());
    EXPECT_EQ(stack.fs().allocator()->blocks_in_use(), before);
  });
}

TEST(FsEdgeTest, RandomizedOpSequenceStaysConsistent) {
  StorageStack stack(MqfsConfig(2));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    Rng rng(2024);
    std::vector<std::string> live;
    ASSERT_TRUE(stack.fs().Mkdir("/d").ok());
    for (int i = 0; i < 150; ++i) {
      const int op = static_cast<int>(rng.Uniform(5));
      switch (op) {
        case 0: {  // create
          const std::string path = "/d/r" + std::to_string(i);
          if (stack.fs().Create(path).ok()) {
            live.push_back(path);
          }
          break;
        }
        case 1: {  // write + fsync
          if (live.empty()) break;
          const std::string& path = live[rng.Uniform(live.size())];
          auto ino = stack.fs().Lookup(path);
          if (ino.ok()) {
            ASSERT_TRUE(stack.fs().Append(*ino, Buffer(rng.Uniform(8192) + 1, 1)).ok());
            ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
          }
          break;
        }
        case 2: {  // unlink
          if (live.empty()) break;
          const size_t idx = rng.Uniform(live.size());
          if (stack.fs().Unlink(live[idx]).ok()) {
            live.erase(live.begin() + static_cast<long>(idx));
          }
          break;
        }
        case 3: {  // rename
          if (live.empty()) break;
          const size_t idx = rng.Uniform(live.size());
          const std::string to = "/d/m" + std::to_string(i);
          if (stack.fs().Rename(live[idx], to).ok()) {
            live[idx] = to;
          }
          break;
        }
        case 4: {  // fsync dir
          ASSERT_TRUE(stack.fs().FsyncPath("/d").ok());
          break;
        }
      }
    }
    EXPECT_TRUE(stack.fs().CheckConsistency().ok());
  });
  // And it survives a crash + remount.
  const CrashImage image = stack.CaptureCrashImage();
  StorageStack after(MqfsConfig(2), image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] { EXPECT_TRUE(after.fs().CheckConsistency().ok()); });
}

TEST(FsEdgeTest, SelectiveRevocationCountersExposed) {
  StorageStack stack(MqfsConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto* mq = dynamic_cast<MqJournal*>(stack.fs().journal());
    ASSERT_NE(mq, nullptr);
    ASSERT_TRUE(stack.fs().Mkdir("/rv").ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(stack.fs().Create("/rv/f" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(stack.fs().FsyncPath("/rv").ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(stack.fs().Unlink("/rv/f" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(stack.fs().Rmdir("/rv").ok());  // revokes the dir block
    ASSERT_TRUE(stack.fs().FsyncPath("/").ok());
    EXPECT_GE(mq->transactions(), 2u);
  });
}

TEST(MediaStoreTest, PowerCutSurvivorSubsets) {
  MediaStore media(1 << 20);
  Buffer a(4096, 0xA);
  Buffer b(4096, 0xB);
  Buffer c(4096, 0xC);
  const uint64_t sa = media.WriteCached(0, a);
  const uint64_t sb = media.WriteCached(4096, b);
  (void)media.WriteCached(8192, c);
  // Only a and b survive.
  media.PowerCut({sa, sb});
  Buffer out(4096);
  media.ReadDurable(0, out);
  EXPECT_EQ(out, a);
  media.ReadDurable(4096, out);
  EXPECT_EQ(out, b);
  media.ReadDurable(8192, out);
  EXPECT_EQ(out, Buffer(4096, 0));
  EXPECT_FALSE(media.has_pending());
}

TEST(MediaStoreTest, SurvivorsApplyInSequenceOrder) {
  MediaStore media(1 << 20);
  Buffer v1(4096, 1);
  Buffer v2(4096, 2);
  const uint64_t s1 = media.WriteCached(0, v1);
  const uint64_t s2 = media.WriteCached(0, v2);
  media.PowerCut({s1, s2});
  Buffer out(4096);
  media.ReadDurable(0, out);
  EXPECT_EQ(out, v2) << "later write must win";
}

// A durable write (FUA, or any write on a power-loss-protected drive)
// supersedes an older cached copy of its block: destaging the cache later
// must not bring the stale bytes back. The crash-state builder applies
// events in order and assumes the same.
TEST(MediaStoreTest, DurableWriteSupersedesOlderCachedWrite) {
  const Buffer x(2 * 4096, 0x11);
  const Buffer y(4096, 0x22);
  for (const bool cut : {false, true}) {
    MediaStore media(1 << 20);
    const uint64_t sx = media.WriteCached(0, x);  // blocks 0 and 1
    media.WriteDurable(4096, y);                  // block 1 only
    if (cut) {
      media.PowerCut({sx});
    } else {
      media.Flush();
    }
    const char* how = cut ? "power cut keeping the cached write" : "flush";
    Buffer out(4096);
    media.ReadDurable(4096, out);
    EXPECT_EQ(out, y) << how;
    media.Read(4096, out);
    EXPECT_EQ(out, y) << how;
    media.ReadDurable(0, out);
    EXPECT_EQ(out, Buffer(4096, 0x11)) << how << ": the unsuperseded block still destages";
  }
}

TEST(MediaStoreTest, SnapshotSharesBlocksUntilTheStoreOverwritesThem) {
  MediaStore media(1 << 20);
  media.WriteDurable(0, Buffer(2 * 4096, 0xA));
  const MediaStore::BlockMap snap = media.SnapshotDurable();
  {
    const MediaStore::BlockMap live = media.SnapshotDurable();
    EXPECT_TRUE(snap.at(0).SharesBytesWith(live.at(0)));
    EXPECT_TRUE(snap.at(1).SharesBytesWith(live.at(1)));
  }
  media.WriteDurable(0, Buffer(4096, 0xB));
  const MediaStore::BlockMap live = media.SnapshotDurable();
  EXPECT_FALSE(snap.at(0).SharesBytesWith(live.at(0)));
  EXPECT_EQ(snap.at(0), MediaBlock(Buffer(4096, 0xA))) << "the snapshot kept its bytes";
  EXPECT_EQ(live.at(0), MediaBlock(Buffer(4096, 0xB)));
  EXPECT_TRUE(snap.at(1).SharesBytesWith(live.at(1))) << "an unwritten block stays shared";
}

TEST(MediaStoreTest, UnsharedBlockIsOverwrittenInPlace) {
  MediaStore media(1 << 20);
  media.WriteDurable(0, Buffer(4096, 0xA));
  const uint8_t* const before = media.SnapshotDurable().at(0).data();
  media.WriteDurable(0, Buffer(4096, 0xB));
  const MediaStore::BlockMap live = media.SnapshotDurable();
  EXPECT_EQ(live.at(0).data(), before);
  EXPECT_EQ(live.at(0), MediaBlock(Buffer(4096, 0xB)));
}

TEST(FsEdgeTest, DataJournalingModeRoundTripAndCrash) {
  StackConfig cfg = MqfsConfig();
  cfg.fs.data_journaling = true;
  CrashImage image;
  const Buffer data = [&] {
    Buffer b(3 * kFsBlockSize);
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<uint8_t>(i * 7);
    }
    return b;
  }();
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/dj");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/dj");
    ASSERT_TRUE(ino.ok());
    Buffer out(data.size());
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, data);
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

}  // namespace
}  // namespace ccnvme
