// Disk-image persistence tests: save/load round trips, checksum
// enforcement, and a full workflow — format, populate, crash, archive the
// image, reload it in a fresh stack, recover, verify.
#include <cstdio>

#include <gtest/gtest.h>

#include "src/harness/image_file.h"
#include "src/nvm/nvlog_format.h"

namespace ccnvme {
namespace {

// A page image's bytes, absent pages as zeros.
Buffer Bytes(const PageImage& image) {
  Buffer bytes(image.size());
  image.Read(0, bytes);
  return bytes;
}

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
  image.pmr() = PageImage(Buffer(2 * 1024 * 1024, 0x11));
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(SaveImage(image, path).ok());
  auto loaded = LoadImage(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->media().size(), 2u);
  EXPECT_EQ(loaded->media()[7], image.media()[7]);
  EXPECT_EQ(loaded->media()[100], image.media()[100]);
  EXPECT_EQ(Bytes(loaded->pmr()), Bytes(image.pmr()));
  std::remove(path.c_str());
}

TEST(ImageFileTest, CorruptionDetected) {
  CrashImage image;
  image.media()[1] = MediaBlock(Buffer(kFsBlockSize, 0x77));
  image.pmr() = PageImage(1024);
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

uint64_t PagesFnv(const PageImage& image, uint64_t h) { return Fnv1a(Bytes(image), h); }

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
    h = PagesFnv(dev.pmr, h);
  }
  return PagesFnv(image.nvm, h);
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

StackConfig NvlogConfig() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.nvm.size_bytes = 1 << 20;
  return cfg;
}

StackConfig KvConfig() {
  StackConfig cfg;
  cfg.num_queues = 1;
  cfg.enable_ccnvme = false;
  cfg.kv.enabled = true;
  return cfg;
}

// Pages |a| holds that are not the same block in |b|.
size_t PagesNotShared(const PageImage& a, const PageImage& b) {
  size_t n = 0;
  for (size_t p = 0; p < a.page_count(); ++p) {
    n += a.page(p) && !a.SamePage(b, p) ? 1 : 0;
  }
  return n;
}

// The NVM tier's pages are shared like media blocks: a capture copies page
// handles, the tier's next store to a captured page copies that page first,
// and a store not yet fenced stays out of the capture.
TEST(CrashImageSharingTest, CaptureSharesNvmPagesUntilTheTierStoresToThem) {
  StorageStack stack(NvlogConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  WriteAndFsync(stack, "/a", 0x1A);
  const CrashImage image = stack.CaptureCrashImage();
  const uint64_t captured = ImageFingerprint(image);
  NvmDevice& nvm = *stack.nvm_device();
  ASSERT_GT(image.nvm.pages_held(), 1u);
  EXPECT_EQ(PagesNotShared(image.nvm, nvm.live_image()), 0u);

  const size_t last_word = nvm.size() - kNvmWordSize;  // far past the log's tail
  stack.Run([&] { nvm.StoreU64(last_word, 0x5EED); });
  EXPECT_EQ(nvm.live_image().ReadU64(last_word), 0x5EEDu);
  EXPECT_EQ(stack.CaptureCrashImage().nvm.ReadU64(last_word), 0u)
      << "an unfenced store must stay out of the captured durable view";

  WriteAndFsync(stack, "/a", 0x2A);
  WriteAndFsync(stack, "/b", 0x2B);
  EXPECT_EQ(ImageFingerprint(image), captured);
  const size_t rewritten = PagesNotShared(image.nvm, nvm.live_image());
  EXPECT_GT(rewritten, 0u);
  EXPECT_LT(rewritten, image.nvm.pages_held()) << "untouched pages stay shared";
}

// The same for the PMR, whose P-SQ slots and doorbells the ccNVMe driver
// stores to on every transaction.
TEST(CrashImageSharingTest, CapturesSharePmrPagesUntilTheDriverStoresToThem) {
  StorageStack stack(SmallConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  for (int i = 0; i < 48; ++i) {  // fill more P-SQ pages than one fsync stores to
    WriteAndFsync(stack, "/f" + std::to_string(i), 0x10);
  }
  const CrashImage image = stack.CaptureCrashImage();
  const uint64_t captured = ImageFingerprint(image);
  const PageImage& pmr = stack.controller().pmr().image();
  ASSERT_GT(image.pmr().pages_held(), 2u);
  EXPECT_EQ(PagesNotShared(image.pmr(), pmr), 0u);
  WriteAndFsync(stack, "/a", 0x2A);
  EXPECT_EQ(ImageFingerprint(image), captured);
  const size_t rewritten = PagesNotShared(image.pmr(), pmr);
  EXPECT_GT(rewritten, 0u);
  EXPECT_LT(rewritten, image.pmr().pages_held()) << "untouched pages stay shared";
}

// NVLog recovery replays the undrained tail and advances the drain
// frontier in the booted stack's tier; the image keeps its bytes, so a
// second boot replays the same tail.
TEST(CrashImageSharingTest, NvlogRecoveryLeavesItsImageUnchanged) {
  StackConfig cfg = NvlogConfig();
  cfg.fs.nvlog_drain_delay_ns = 1'000'000'000;  // nothing drains before the cut
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/tail");
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(2 * kFsBlockSize, 0x6A)).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      image = stack.CaptureCrashImage();
    });
  }
  const uint64_t captured = ImageFingerprint(image);
  ASSERT_FALSE(ScanNvLogImage(image.nvm).tail.empty());
  for (int boot = 0; boot < 2; ++boot) {
    StorageStack booted(cfg, image);
    ASSERT_TRUE(booted.MountExisting().ok());
    EXPECT_TRUE(ScanNvLogImage(booted.nvm_device()->durable_image()).tail.empty());
    EXPECT_FALSE(booted.nvm_device()->live_image().SamePage(image.nvm, 0))
        << "recovery stored the drain frontier";
    EXPECT_EQ(ImageFingerprint(image), captured) << "boot " << boot;
    booted.Run([&] {
      auto ino = booted.fs().Lookup("/tail");
      ASSERT_TRUE(ino.ok());
      Buffer out(2 * kFsBlockSize);
      ASSERT_TRUE(booted.fs().Read(*ino, 0, out).ok());
      EXPECT_EQ(out, Buffer(2 * kFsBlockSize, 0x6A));
    });
  }
}

// A booted ccNVMe driver scans the P-SQ window out of the PMR and then
// resets each queue's doorbell and head words: stores into pages of the
// booted controller's own, never into the image's.
TEST(CrashImageSharingTest, CcNvmeWindowResetLeavesItsImageUnchanged) {
  const StackConfig cfg = SmallConfig();
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    WriteAndFsync(stack, "/a", 0x1A);
    image = stack.CaptureCrashImage();
  }
  const uint64_t captured = ImageFingerprint(image);
  StorageStack booted(cfg, image);
  EXPECT_GT(PagesNotShared(booted.controller().pmr().image(), image.pmr()), 0u)
      << "the doorbell and head reset stored nothing";
  EXPECT_EQ(ImageFingerprint(image), captured);
  ASSERT_TRUE(booted.MountExisting().ok());
  WriteAndFsync(booted, "/a", 0x3A);
  EXPECT_EQ(ImageFingerprint(image), captured);
}

// Saving writes the PMR and NVM bytes in full; loading keeps only the pages
// that are not all zero. Saving the loaded image gives the same file, also
// after a stack booted from it has recovered and stored.
TEST(ImageFileTest, NvlogAndKvImagesRoundTripByteIdenticalAndLoadSparse) {
  auto read_file = [](const std::string& path) {
    Buffer bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    CCNVME_CHECK(f != nullptr) << path;
    uint8_t chunk[4096];
    for (size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;) {
      bytes.insert(bytes.end(), chunk, chunk + n);
    }
    std::fclose(f);
    return bytes;
  };
  const StackConfig nvlog_cfg = NvlogConfig();
  const StackConfig kv_cfg = KvConfig();
  CrashImage nvlog;
  {
    StorageStack stack(nvlog_cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    WriteAndFsync(stack, "/a", 0x1A);
    nvlog = stack.CaptureCrashImage();
  }
  CrashImage kv;
  {
    StorageStack stack(kv_cfg);
    ASSERT_TRUE(stack.KvFormat().ok());
    stack.Run([&] {
      ASSERT_TRUE(stack.kv_driver()->Store(0, "packed", std::string(1000, 'p')).ok());
      ASSERT_TRUE(stack.kv_driver()->Store(0, "paged", std::string(8192, 'q')).ok());
    });
    kv = stack.CaptureCrashImage();
  }
  for (const CrashImage* image : {&nvlog, &kv}) {
    const bool is_kv = image == &kv;
    const std::string path = TempPath("sparse");
    const std::string again = TempPath("sparse_again");
    ASSERT_TRUE(SaveImage(*image, path).ok());
    Result<CrashImage> loaded = LoadImage(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(ImageFingerprint(*loaded), ImageFingerprint(*image));
    for (const PageImage* pages : {&loaded->nvm, &loaded->pmr()}) {
      EXPECT_LE(pages->pages_held(), pages->page_count() / 2) << "loaded dense";
    }
    EXPECT_LE(loaded->pmr().pages_held(), image->pmr().pages_held());
    EXPECT_LE(loaded->nvm.pages_held(), image->nvm.pages_held());
    {
      StorageStack booted(is_kv ? kv_cfg : nvlog_cfg, *loaded);
      if (is_kv) {
        ASSERT_TRUE(booted.KvAttach().ok());
        booted.Run([&] {
          ASSERT_TRUE(booted.kv_driver()->Store(0, "packed", std::string(900, 'r')).ok());
        });
      } else {
        ASSERT_TRUE(booted.MountExisting().ok());
        WriteAndFsync(booted, "/a", 0x2A);
      }
    }
    ASSERT_TRUE(SaveImage(*loaded, again).ok());
    EXPECT_EQ(read_file(again), read_file(path));
    std::remove(path.c_str());
    std::remove(again.c_str());
  }
  EXPECT_GT(nvlog.nvm.pages_held(), 0u);
  EXPECT_TRUE(kv.nvm.empty());
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
