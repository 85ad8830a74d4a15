// Disk-image persistence tests: save/load round trips, checksum
// enforcement, and a full workflow — format, populate, crash, archive the
// image, reload it in a fresh stack, recover, verify.
#include <cstdio>

#include <gtest/gtest.h>

#include "src/harness/image_file.h"

namespace ccnvme {
namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/ccnvme_test_") + name + ".img";
}

StackConfig SmallConfig() {
  StackConfig cfg;
  cfg.fs_total_blocks = 65536;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 1024;
  return cfg;
}

TEST(ImageFileTest, SaveLoadRoundTrip) {
  CrashImage image;
  image.media()[7] = MediaBlock(Buffer(kFsBlockSize, 0xAB));
  image.media()[100] = MediaBlock(Buffer(kFsBlockSize, 0xCD));
  image.pmr() = Buffer(2 * 1024 * 1024, 0x11);
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(SaveImage(image, path).ok());
  auto loaded = LoadImage(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->media().size(), 2u);
  EXPECT_EQ(loaded->media()[7], image.media()[7]);
  EXPECT_EQ(loaded->media()[100], image.media()[100]);
  EXPECT_EQ(loaded->pmr(), image.pmr());
  std::remove(path.c_str());
}

TEST(ImageFileTest, CorruptionDetected) {
  CrashImage image;
  image.media()[1] = MediaBlock(Buffer(kFsBlockSize, 0x77));
  image.pmr() = Buffer(1024, 0);
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(SaveImage(image, path).ok());
  // Flip a byte in the middle.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    const char x = 0x5A;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadImage(path).ok());
  std::remove(path.c_str());
}

TEST(ImageFileTest, MissingFileErrors) {
  EXPECT_FALSE(LoadImage("/tmp/ccnvme_no_such_image.img").ok());
}

TEST(ImageFileTest, CrashImageArchiveWorkflow) {
  const std::string path = TempPath("workflow");
  const StackConfig cfg = SmallConfig();
  const Buffer payload(kFsBlockSize, 0x3C);
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/archived");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, payload).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    });
    // Power cut (no unmount) and archive the crash state to disk.
    ASSERT_TRUE(SaveImage(stack.CaptureCrashImage(), path).ok());
  }
  // Days later: reload the archive, mount (recovery runs), verify.
  auto image = LoadImage(path);
  ASSERT_TRUE(image.ok());
  StorageStack after(cfg, *image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/archived");
    ASSERT_TRUE(ino.ok());
    Buffer out(payload.size());
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, payload);
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
  std::remove(path.c_str());
}

// FNV-1a over every media block (index and bytes) and the PMR of each
// device, then the NVM image.
uint64_t ImageFingerprint(const CrashImage& image) {
  uint64_t h = Fnv1a({});
  for (const DeviceImage& dev : image.devices) {
    for (const auto& [block, data] : dev.media) {
      uint8_t key[8];
      PutU64(key, 0, block);
      h = Fnv1a(data, Fnv1a(key, h));
    }
    h = Fnv1a(dev.pmr, h);
  }
  return Fnv1a(image.nvm, h);
}

void WriteAndFsync(StorageStack& stack, const std::string& path, uint8_t fill) {
  stack.Run([&] {
    auto ino = stack.fs().Lookup(path);
    if (!ino.ok()) {
      ino = stack.fs().Create(path);
    }
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(2 * kFsBlockSize, fill)).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
  });
}

// A crash image shares its blocks with the live store until the store
// overwrites them, and keeps its own bytes afterwards.
TEST(CrashImageSharingTest, CaptureSharesBlocksUntilTheStackOverwritesThem) {
  StorageStack stack(SmallConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  WriteAndFsync(stack, "/a", 0x1A);
  const CrashImage image = stack.CaptureCrashImage();
  const uint64_t captured = ImageFingerprint(image);
  {
    const MediaStore::BlockMap live = stack.ssd().media().SnapshotDurable();
    ASSERT_EQ(live.size(), image.media().size());
    for (const auto& [block, data] : image.media()) {
      EXPECT_TRUE(data.SharesBytesWith(live.at(block))) << "block " << block;
    }
  }
  WriteAndFsync(stack, "/a", 0x2A);
  WriteAndFsync(stack, "/b", 0x2B);
  EXPECT_EQ(ImageFingerprint(image), captured);
  const MediaStore::BlockMap live = stack.ssd().media().SnapshotDurable();
  size_t rewritten = 0;
  for (const auto& [block, data] : image.media()) {
    rewritten += data.SharesBytesWith(live.at(block)) ? 0 : 1;
  }
  EXPECT_GT(rewritten, 0u);
  EXPECT_LT(rewritten, image.media().size()) << "untouched blocks stay shared";
}

// A stack booted from an image writes into blocks of its own: the image
// stays as captured, so it can boot any number of stacks (perfbench's
// recoveries, the crash explorer's states).
TEST(CrashImageSharingTest, BootedStackLeavesItsImageUnchanged) {
  const StackConfig cfg = SmallConfig();
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    WriteAndFsync(stack, "/a", 0x1A);
    image = stack.CaptureCrashImage();
  }
  const uint64_t captured = ImageFingerprint(image);
  for (int boot = 0; boot < 2; ++boot) {
    StorageStack booted(cfg, image);
    ASSERT_TRUE(booted.MountExisting().ok());
    WriteAndFsync(booted, "/a", 0x3A);
    WriteAndFsync(booted, "/c", 0x3C);
    ASSERT_TRUE(booted.Unmount().ok());
    EXPECT_TRUE(booted.ssd().media().SnapshotDurable() != image.media());
    EXPECT_EQ(ImageFingerprint(image), captured) << "boot " << boot;
  }
  StorageStack again(cfg, image);
  ASSERT_TRUE(again.MountExisting().ok());
  again.Run([&] {
    auto ino = again.fs().Lookup("/a");
    ASSERT_TRUE(ino.ok());
    Buffer out(2 * kFsBlockSize);
    ASSERT_TRUE(again.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Buffer(2 * kFsBlockSize, 0x1A));
    EXPECT_FALSE(again.fs().Lookup("/c").ok());
  });
}

TEST(ImageFileTest, BitmapCountsMatchTreeWalk) {
  StorageStack stack(SmallConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    for (int i = 0; i < 10; ++i) {
      auto ino = stack.fs().Create("/c" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(2 * kFsBlockSize, 1)).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
    auto inodes = stack.fs().allocator()->CountUsedInodes();
    ASSERT_TRUE(inodes.ok());
    EXPECT_EQ(*inodes, 11u);  // root + 10 files
    auto blocks = stack.fs().allocator()->CountUsedBlocks();
    ASSERT_TRUE(blocks.ok());
    EXPECT_EQ(*blocks, 21u);  // 10 files x 2 data blocks + 1 root dir block
  });
}

TEST(TruncateTest, ShrinkFreesBlocksAndZerosTail) {
  StorageStack stack(SmallConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/t");
    ASSERT_TRUE(ino.ok());
    Buffer data(5 * kFsBlockSize, 0xEE);
    ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    auto before = stack.fs().Stat(*ino);
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before->blocks, 5u);

    ASSERT_TRUE(stack.fs().Truncate(*ino, kFsBlockSize + 100).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    auto after = stack.fs().Stat(*ino);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->size, kFsBlockSize + 100u);
    EXPECT_EQ(after->blocks, 2u);

    // Growing back reads zeros past the old tail.
    ASSERT_TRUE(stack.fs().Truncate(*ino, 3 * kFsBlockSize).ok());
    Buffer out(kFsBlockSize);
    ASSERT_TRUE(stack.fs().Read(*ino, 2 * kFsBlockSize, out).ok());
    EXPECT_EQ(out, Buffer(kFsBlockSize, 0));
    // Bytes after the shrink point inside the kept block were zeroed too.
    ASSERT_TRUE(stack.fs().Read(*ino, kFsBlockSize, out).ok());
    EXPECT_EQ(out[99], 0xEE);
    EXPECT_EQ(out[100], 0x00);
  });
}

TEST(TruncateTest, TruncateSurvivesCrash) {
  const StackConfig cfg = SmallConfig();
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/shrink");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(4 * kFsBlockSize, 0x44)).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      ASSERT_TRUE(stack.fs().Truncate(*ino, 100).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/shrink");
    ASSERT_TRUE(ino.ok());
    auto size = after.fs().FileSize(*ino);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 100u);
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(TruncateTest, RejectsDirectories) {
  StorageStack stack(SmallConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    ASSERT_TRUE(stack.fs().Mkdir("/d").ok());
    auto ino = stack.fs().Lookup("/d");
    ASSERT_TRUE(ino.ok());
    EXPECT_FALSE(stack.fs().Truncate(*ino, 0).ok());
  });
}

}  // namespace
}  // namespace ccnvme
