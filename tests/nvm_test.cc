// NVM tier tests (ctest label: "nvm").
//
// Covers the persistence primitives of the byte-addressable NVM device
// model (live/durable views, flush+fence promotion, torn-store word masks),
// the on-NVM NVLog wire format and scanner, the NVLog journal end-to-end on
// a full stack (absorb-then-drain, remount persistence, the
// nvm.log_drain_order monitor catching the injected test_skip_nvlog_fence
// bug live), crash-image round-trips carrying the NVM tier, randomized
// crash sampling over the NVLog stack, and torn-store determinism of the
// parallel crash executor on NVM-heavy recordings.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "src/common/rng.h"
#include "src/crashtest/crash_explorer.h"
#include "src/crashtest/crash_monkey.h"
#include "src/crashtest/crash_workloads.h"
#include "src/harness/image_file.h"
#include "src/metrics/metrics.h"
#include "src/nvm/nvlog.h"
#include "src/nvm/nvlog_format.h"
#include "src/nvm/nvm_device.h"

namespace ccnvme {
namespace {

NvmConfig SmallNvm(size_t size = 64 * 1024) {
  NvmConfig cfg;
  cfg.enabled = true;
  cfg.size_bytes = size;
  return cfg;
}

// A page image's bytes as a Buffer, for whole-image comparisons.
Buffer Bytes(const PageImage& image) {
  Buffer bytes(image.size());
  image.Read(0, bytes);
  return bytes;
}

// --- NVM device model: live vs durable views ------------------------------

TEST(NvmDeviceTest, FreshDeviceIsZeroed) {
  Simulator sim;
  const NvmConfig cfg = SmallNvm(1 << 20);
  NvmDevice nvm(&sim, cfg);
  EXPECT_EQ(Bytes(nvm.live_image()), Buffer(cfg.size_bytes, 0));
  EXPECT_EQ(Bytes(nvm.durable_image()), Buffer(cfg.size_bytes, 0));
}

TEST(NvmDeviceTest, FreshTierHoldsNoPagesUntilItsFirstStore) {
  Simulator sim;
  NvmDevice nvm(&sim, SmallNvm(64 << 20));
  EXPECT_EQ(nvm.live_image().pages_held(), 0u);
  EXPECT_EQ(nvm.durable_image().pages_held(), 0u);
  sim.Spawn("t", [&] {
    EXPECT_EQ(nvm.LoadU64(40 << 20), 0u);
    EXPECT_EQ(nvm.live_image().pages_held(), 0u) << "a load allocates nothing";
    nvm.StoreU64(40 << 20, 0x77);
    EXPECT_EQ(nvm.live_image().pages_held(), 1u);
    EXPECT_EQ(nvm.durable_image().pages_held(), 0u);
    nvm.FlushFence();
    EXPECT_EQ(nvm.durable_image().pages_held(), 1u);
    // The fence shared the page, so the next store copies it.
    nvm.StoreU64(40 << 20, 0x99);
    EXPECT_EQ(nvm.durable_image().ReadU64(40 << 20), 0x77u);
    EXPECT_EQ(nvm.live_image().pages_held(), 1u);
  });
  sim.Run();
}

// The durable view shares every page with the live view except those
// stored to since the last fence, and a captured durable view keeps its
// bytes while the tier stores over them: the first store to a shared page
// copies it.
TEST(NvmDeviceTest, DurableViewSharesPagesUntilTheTierStoresToThem) {
  Simulator sim;
  NvmDevice nvm(&sim, SmallNvm());
  constexpr size_t kPage = PageImage::kPageSize;
  sim.Spawn("t", [&] {
    nvm.Store(0, Buffer(3 * kPage, 0x11));
    nvm.FlushFence();
    const PageImage captured = nvm.durable_image();
    for (size_t p = 0; p < 3; ++p) {
      EXPECT_TRUE(captured.SamePage(nvm.live_image(), p)) << "page " << p;
    }
    nvm.Store(kPage + 8, Buffer(16, 0x22));  // unfenced
    EXPECT_FALSE(nvm.live_image().SamePage(captured, 1));
    EXPECT_TRUE(nvm.durable_image().SamePage(captured, 1))
        << "an unfenced store stays out of the durable view";
    EXPECT_EQ(Bytes(captured), Bytes(nvm.durable_image()));
    EXPECT_TRUE(nvm.live_image().SamePage(captured, 0));
    EXPECT_TRUE(nvm.live_image().SamePage(captured, 2));
    nvm.FlushFence();
    EXPECT_TRUE(nvm.durable_image().SamePage(nvm.live_image(), 1));
    Buffer want(nvm.size(), 0);
    std::fill(want.begin(), want.begin() + 3 * kPage, 0x11);
    EXPECT_EQ(Bytes(captured), want) << "the capture keeps the bytes it had";
  });
  sim.Run();
}

TEST(NvmDeviceTest, StoreIsLiveImmediatelyDurableOnlyAfterFence) {
  Simulator sim;
  NvmDevice nvm(&sim, SmallNvm());
  sim.Spawn("t", [&] {
    Buffer data(100, 0xAB);
    nvm.Store(10, data);
    Buffer out(100);
    nvm.Load(10, out);
    EXPECT_EQ(out, data) << "loads must see the store immediately";
    EXPECT_TRUE(nvm.has_pending_stores());
    EXPECT_EQ(Bytes(nvm.durable_image())[10], 0u) << "unfenced store must not be durable";
    EXPECT_EQ(nvm.FlushFence(), 1u);
    EXPECT_FALSE(nvm.has_pending_stores());
    const Buffer durable = Bytes(nvm.durable_image());
    EXPECT_EQ(durable[10], 0xAB);
    EXPECT_EQ(durable[109], 0xAB);
    EXPECT_EQ(durable[110], 0u);
  });
  sim.Run();
  EXPECT_GT(nvm.stores(), 0u);
  EXPECT_EQ(nvm.fences(), 1u);
}

TEST(NvmDeviceTest, StoreU64LoadU64RoundTrip) {
  Simulator sim;
  NvmDevice nvm(&sim, SmallNvm());
  sim.Spawn("t", [&] {
    nvm.StoreU64(8, 0x1122334455667788ull);
    EXPECT_EQ(nvm.LoadU64(8), 0x1122334455667788ull);
    nvm.FlushFence();
    EXPECT_EQ(nvm.durable_image().ReadU64(8), 0x1122334455667788ull);
  });
  sim.Run();
}

TEST(NvmDeviceTest, BootFromImagePreservesBytes) {
  Simulator sim;
  Buffer image(SmallNvm().size_bytes, 0);
  PutU64(image, 0, kNvLogMagic);
  image[100] = 0x5A;
  NvmDevice nvm(&sim, SmallNvm(), PageImage(image));
  EXPECT_EQ(Bytes(nvm.durable_image()), image) << "a surviving image is durable by definition";
  EXPECT_EQ(Bytes(nvm.live_image()), image);
  EXPECT_FALSE(nvm.has_pending_stores());
}

// Store/fence sequences applied in random order must leave the durable view
// exactly equal to a reference model that promotes live->durable at fences.
TEST(NvmDeviceTest, RandomizedFlushFenceOrderingMatchesModel) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Simulator sim;
    const NvmConfig cfg = SmallNvm(8192);
    NvmDevice nvm(&sim, cfg);
    Buffer model_live(cfg.size_bytes, 0);
    Buffer model_durable(cfg.size_bytes, 0);
    Rng rng(seed);
    sim.Spawn("t", [&] {
      for (int i = 0; i < 300; ++i) {
        if (rng.Uniform(5) == 0) {
          nvm.FlushFence();
          model_durable = model_live;
        } else {
          // Sizes above kNvmStoreChunk exercise the multi-chunk store path.
          const size_t len = 1 + rng.Uniform(3 * kNvmStoreChunk);
          const size_t off = rng.Uniform(cfg.size_bytes - len);
          Buffer data(len);
          for (uint8_t& b : data) {
            b = static_cast<uint8_t>(rng.Uniform(256));
          }
          nvm.Store(off, data);
          std::copy(data.begin(), data.end(), model_live.begin() + off);
        }
        EXPECT_EQ(Bytes(nvm.durable_image()), model_durable) << "seed " << seed << " step " << i;
      }
      EXPECT_EQ(Bytes(nvm.live_image()), model_live);
      nvm.FlushFence();
      EXPECT_EQ(Bytes(nvm.durable_image()), model_live);
    });
    sim.Run();
  }
}

// --- Torn-store word masks ------------------------------------------------

TEST(NvmTornStoreTest, AppliesOnlySelectedWords) {
  PageImage pages(64);
  Buffer data(24, 0xFF);
  NvmApplyTornWords(pages, 8, data, 0b101);  // words 0 and 2 survive
  const Buffer image = Bytes(pages);
  for (size_t i = 0; i < image.size(); ++i) {
    const bool survived = (i >= 8 && i < 16) || (i >= 24 && i < 32);
    EXPECT_EQ(image[i], survived ? 0xFF : 0) << "byte " << i;
  }
}

TEST(NvmTornStoreTest, ClipsPartialTailWord) {
  PageImage pages(32);
  Buffer data(12, 0xEE);  // word 1 covers only bytes [8, 12)
  NvmApplyTornWords(pages, 0, data, 0b10);
  const Buffer image = Bytes(pages);
  for (size_t i = 0; i < image.size(); ++i) {
    EXPECT_EQ(image[i], (i >= 8 && i < 12) ? 0xEE : 0) << "byte " << i;
  }
}

TEST(NvmTornStoreTest, FullMaskEqualsPlainStore) {
  PageImage torn(64);
  Buffer plain(64, 0);
  Buffer data(40);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i + 1);
  }
  NvmApplyTornWords(torn, 16, data, ~0ull);
  std::copy(data.begin(), data.end(), plain.begin() + 16);
  EXPECT_EQ(Bytes(torn), plain);
}

// TornMask over NVM items is deterministic and never trivial: same inputs
// give the same subset, and the subset is a strict non-empty one.
TEST(NvmTornStoreTest, TornMaskDeterministicStrictSubset) {
  UncertainItem item;
  item.event_index = 7;
  item.is_nvm = true;
  for (uint8_t variant = 0; variant < 8; ++variant) {
    const uint64_t a = TornMask(1234, item, variant, 64);
    const uint64_t b = TornMask(1234, item, variant, 64);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, ~0ull);
  }
  // An 8-byte store is one word: it cannot tear, so the only mask is "the
  // word persisted" — this is what makes the head-frontier advance atomic.
  EXPECT_EQ(TornMask(1234, item, 0, 1), 1u);
  // NVM items draw from a different mask stream than PMR items at the same
  // event index.
  UncertainItem pmr = item;
  pmr.is_nvm = false;
  pmr.is_pmr = true;
  bool differs = false;
  for (uint8_t variant = 0; variant < 8 && !differs; ++variant) {
    differs = TornMask(1234, item, variant, 64) != TornMask(1234, pmr, variant, 64);
  }
  EXPECT_TRUE(differs);
}

// --- NVLog wire format and scanner ----------------------------------------

std::vector<NvLogBlock> MakeBlocks(std::initializer_list<uint64_t> lbas, uint8_t fill) {
  std::vector<NvLogBlock> blocks;
  for (uint64_t lba : lbas) {
    blocks.push_back(NvLogBlock{lba, Buffer(kFsBlockSize, fill)});
  }
  return blocks;
}

// Appends one encoded entry at ring offset |off| of a raw image.
size_t PlaceEntry(Buffer& image, size_t off, uint64_t seq, uint64_t tx_id,
                  const std::vector<NvLogBlock>& blocks) {
  const Buffer header = EncodeNvLogHeader(seq, tx_id, blocks);
  std::copy(header.begin(), header.end(), image.begin() + kNvLogCtrlBytes + off);
  size_t p = off + header.size();
  for (const NvLogBlock& b : blocks) {
    std::copy(b.payload.begin(), b.payload.end(), image.begin() + kNvLogCtrlBytes + p);
    p += b.payload.size();
  }
  return p;  // ring offset just past the entry
}

Buffer FormattedImage(size_t size = 256 * 1024) {
  Buffer image(size, 0);
  PutU64(image, 0, kNvLogMagic);
  PutU64(image, kNvLogHeadWordOffset, PackNvLogHead(0, 0));
  return image;
}

TEST(NvLogFormatTest, HeadWordPacksRoundTrip) {
  const uint64_t word = PackNvLogHead(5, 1234);
  EXPECT_EQ(NvLogHeadSeq(word), 5u);
  EXPECT_EQ(NvLogHeadOff(word), 1234u);
}

TEST(NvLogFormatTest, ScanWalksConsecutiveEntries) {
  Buffer image = FormattedImage();
  size_t off = PlaceEntry(image, 0, 1, 100, MakeBlocks({40, 41}, 0xA1));
  off = PlaceEntry(image, off, 2, 101, MakeBlocks({77}, 0xB2));
  const NvLogScan scan = ScanNvLogImage(PageImage(image));
  ASSERT_TRUE(scan.ctrl.valid);
  ASSERT_EQ(scan.tail.size(), 2u);
  EXPECT_EQ(scan.tail[0].seq, 1u);
  EXPECT_EQ(scan.tail[0].tx_id, 100u);
  EXPECT_EQ(scan.tail[0].home_lbas, (std::vector<uint64_t>{40, 41}));
  EXPECT_EQ(scan.tail[1].seq, 2u);
  EXPECT_EQ(scan.tail[1].home_lbas, (std::vector<uint64_t>{77}));
  EXPECT_EQ(scan.tail_end_off, off);
  EXPECT_EQ(scan.stop_reason, "end of log (no entry magic)");
  // The control block, both entries and the 32-byte probe that ended the
  // scan; nothing past it.
  EXPECT_EQ(scan.scanned_bytes, kNvLogCtrlBytes + off + 32);
  // Payload extraction returns the exact logged bytes.
  const Buffer payload = ReadNvLogPayload(PageImage(image), scan.tail[0], 1);
  EXPECT_EQ(payload, Buffer(kFsBlockSize, 0xA1));
}

TEST(NvLogFormatTest, ScanOfAFullRingReadsAtMostTheImage) {
  // Two one-block entries leave 16 ring bytes free, so the 32-byte probe
  // after them wraps onto the start of the ring.
  Buffer image = FormattedImage(kNvLogCtrlBytes + 2 * NvLogEntrySize(1) + 16);
  const size_t off = PlaceEntry(image, 0, 1, 100, MakeBlocks({40}, 0xA1));
  PlaceEntry(image, off, 2, 101, MakeBlocks({41}, 0xB2));
  const NvLogScan scan = ScanNvLogImage(PageImage(image));
  ASSERT_EQ(scan.tail.size(), 2u);
  EXPECT_EQ(scan.stop_reason, "end of log (no entry magic)");
  EXPECT_EQ(scan.scanned_bytes, image.size());
}

TEST(NvLogFormatTest, ScanStopsAtCorruptPayload) {
  Buffer image = FormattedImage();
  size_t off = PlaceEntry(image, 0, 1, 100, MakeBlocks({40}, 0xA1));
  PlaceEntry(image, off, 2, 101, MakeBlocks({41}, 0xB2));
  // Flip one payload byte of entry 2 (header stays checksum-clean).
  image[kNvLogCtrlBytes + off + NvLogHeaderSize(1) + 17] ^= 0xFF;
  const NvLogScan scan = ScanNvLogImage(PageImage(image));
  ASSERT_EQ(scan.tail.size(), 1u);
  EXPECT_EQ(scan.tail[0].seq, 1u);
  EXPECT_EQ(scan.stop_reason, "payload checksum mismatch");
}

TEST(NvLogFormatTest, ScanStopsAtSequenceBreak) {
  Buffer image = FormattedImage();
  const size_t off = PlaceEntry(image, 0, 1, 100, MakeBlocks({40}, 0xA1));
  PlaceEntry(image, off, 3, 101, MakeBlocks({41}, 0xB2));  // gap: 2 missing
  const NvLogScan scan = ScanNvLogImage(PageImage(image));
  ASSERT_EQ(scan.tail.size(), 1u);
  EXPECT_EQ(scan.stop_reason, "sequence break (stale entry)");
}

TEST(NvLogFormatTest, ScanRespectsDrainFrontier) {
  Buffer image = FormattedImage();
  size_t off = PlaceEntry(image, 0, 1, 100, MakeBlocks({40}, 0xA1));
  const size_t second = off;
  off = PlaceEntry(image, off, 2, 101, MakeBlocks({41}, 0xB2));
  // Drain frontier past entry 1: only entry 2 is undrained.
  PutU64(image, kNvLogHeadWordOffset,
         PackNvLogHead(1, static_cast<uint32_t>(second)));
  const NvLogScan scan = ScanNvLogImage(PageImage(image));
  EXPECT_EQ(scan.ctrl.head_seq, 1u);
  ASSERT_EQ(scan.tail.size(), 1u);
  EXPECT_EQ(scan.tail[0].seq, 2u);
}

TEST(NvLogFormatTest, BadMagicMeansNoLog) {
  const NvLogScan scan = ScanNvLogImage(PageImage(4096));
  EXPECT_FALSE(scan.ctrl.valid);
  EXPECT_TRUE(scan.tail.empty());
}

// --- NvLog persist barriers ----------------------------------------------

// A barrier covers only entries appended before it began. Appender B's entry
// lands while A's 500 ns barrier is in progress, so A's barrier must not mark
// it durable, and a cut at that moment keeps only A's entry.
TEST(NvLogBarrierTest, EntryAppendedDuringABarrierIsNotCoveredByIt) {
  Simulator sim;
  NvmConfig cfg = SmallNvm(256 * 1024);
  cfg.store_line_ns = 1;  // an append ends well inside one barrier
  NvmDevice nvm(&sim, cfg);
  NvLog log(&sim, &nvm);
  sim.Spawn("init", [&] { log.Init(); });
  sim.Run();

  uint64_t a_seq = 0;
  uint64_t b_seq = 0;
  sim.Spawn("a", [&] {
    a_seq = log.Append(1, MakeBlocks({100}, 0xA1));
    log.Fence();
    EXPECT_LT(a_seq, b_seq) << "B must append while A's barrier runs";
    EXPECT_EQ(log.durable_seq(), a_seq);
    EXPECT_EQ(ScanNvLogImage(nvm.durable_image()).tail.size(), 1u);
  });
  sim.Spawn("b", [&] {
    Simulator::Sleep(200);  // A's barrier began at ~67 ns and ends at ~567
    b_seq = log.Append(2, MakeBlocks({200}, 0xB2));
    Simulator::Sleep(2'000);  // fence only after A has checked
    log.Fence();
    EXPECT_EQ(log.durable_seq(), b_seq);
    EXPECT_EQ(ScanNvLogImage(nvm.durable_image()).tail.size(), 2u);
  });
  sim.Run();
  EXPECT_EQ(b_seq, a_seq + 1);
}

// --- NVLog journal end-to-end on the full stack ---------------------------

StackConfig NvlogStackConfig() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.nvm.size_bytes = 1 << 20;  // small tier: keeps crash-state copies cheap
  return cfg;
}

TEST(NvlogJournalTest, FsyncAbsorbsThenDrainsAndSurvivesRemount) {
  StorageStack stack(NvlogStackConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  ASSERT_NE(stack.nvm_device(), nullptr);
  uint64_t hash = 0;
  stack.Run([&] {
    auto ino = stack.fs().Create("/nv_file");
    ASSERT_TRUE(ino.ok());
    Buffer data(3 * kFsBlockSize);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 7);
    }
    ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    hash = Fnv1a(data);
  });
  // The durability point was an NVM fence, not a disk flush.
  EXPECT_GT(stack.nvm_device()->fences(), 0u);
  ASSERT_TRUE(stack.Unmount().ok());  // rushes the drain and truncates
  const NvLogScan scan = ScanNvLogImage(stack.nvm_device()->durable_image());
  ASSERT_TRUE(scan.ctrl.valid);
  EXPECT_TRUE(scan.tail.empty()) << "clean unmount must leave a fully drained log";

  ASSERT_TRUE(stack.MountExisting().ok());
  stack.Run([&] {
    auto ino = stack.fs().Lookup("/nv_file");
    ASSERT_TRUE(ino.ok());
    auto st = stack.fs().Stat(*ino);
    ASSERT_TRUE(st.ok());
    Buffer out(st->size);
    ASSERT_TRUE(stack.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(Fnv1a(out), hash);
  });
  ASSERT_TRUE(stack.Unmount().ok());
}

TEST(NvlogJournalTest, RepeatedOverwritesCoalesceInDrain) {
  StackConfig cfg = NvlogStackConfig();
  cfg.fs.nvlog_drain_delay_ns = 200'000;  // wide absorb window: entries pile up
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/churn");
    ASSERT_TRUE(ino.ok());
    for (int round = 0; round < 6; ++round) {
      Buffer data(kFsBlockSize, static_cast<uint8_t>(0x10 + round));
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
  });
  ASSERT_TRUE(stack.Unmount().ok());
  ASSERT_TRUE(stack.MountExisting().ok());
  stack.Run([&] {
    auto ino = stack.fs().Lookup("/churn");
    ASSERT_TRUE(ino.ok());
    Buffer out(kFsBlockSize);
    ASSERT_TRUE(stack.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Buffer(kFsBlockSize, 0x15)) << "newest logged content must win";
  });
  ASSERT_TRUE(stack.Unmount().ok());
}

// Three appenders whose inodes share the root's inode-table block, and a
// creator whose new files land in the next table block but whose creates
// dirty the root's inode, so its fsyncs log the shared block without first
// writing to it. The creator's large entries find the small ring full: it
// parks with the shared block frozen, an appender's barrier thaws the block
// (the freeze is one flag), and another appender logs a newer copy under a
// lower sequence number. Had the parked creator copied the block before the
// wait, its stale copy would win in recovery and an appender would lose
// acknowledged bytes. A crash image taken right after each fsync returns
// must recover every acknowledged byte.
TEST(NvlogJournalTest, FullRingKeepsEveryAcknowledgedAppend) {
  StackConfig cfg = NvlogStackConfig();
  cfg.num_queues = 4;
  cfg.nvm.size_bytes = 64 << 10;
  constexpr int kAppenders = 3;
  constexpr int kRounds = 12;
  constexpr uint64_t kAppendBytes = 1000;
  constexpr uint64_t kCreateBytes = 10 * kFsBlockSize;
  const auto byte_at = [](int a, uint64_t off) {
    return static_cast<uint8_t>(a * 61 + off * 7 + (off >> 12));
  };
  struct Cut {
    CrashImage image;
    std::vector<uint64_t> acked;  // per appender
    int created = 0;              // the creator's acknowledged files
  };
  std::vector<Cut> cuts;
  std::vector<InodeNum> inos;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    const FsLayout& layout = stack.fs().layout();
    stack.Run([&] {
      for (int a = 0; a < kAppenders; ++a) {
        auto ino = stack.fs().Create("/mail" + std::to_string(a));
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        inos.push_back(*ino);
      }
      // Fill the root's table block, so the creator's inodes lie beyond it.
      for (int f = 0;; ++f) {
        auto ino = stack.fs().Create("/fill" + std::to_string(f));
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        if (layout.InodeTableBlock(*ino + 1) != layout.InodeTableBlock(kRootInode)) {
          break;
        }
      }
    });
    ASSERT_EQ(layout.InodeTableBlock(inos.back()), layout.InodeTableBlock(kRootInode));
    std::vector<uint64_t> acked(kAppenders, 0);
    int created = 0;
    for (int a = 0; a < kAppenders; ++a) {
      stack.Spawn("app" + std::to_string(a), [&, a] {
        for (int round = 0; round < kRounds; ++round) {
          Buffer data(kAppendBytes);
          for (uint64_t i = 0; i < data.size(); ++i) {
            data[i] = byte_at(a, acked[a] + i);
          }
          ASSERT_TRUE(stack.fs().Write(inos[a], acked[a], data).ok());
          ASSERT_TRUE(stack.fs().Fsync(inos[a]).ok());
          acked[a] += data.size();
          cuts.push_back({stack.CaptureCrashImage(), acked, created});
        }
      }, static_cast<uint16_t>(a));
    }
    stack.Spawn("creator", [&] {
      for (int round = 0; round < kRounds; ++round) {
        auto ino = stack.fs().Create("/new" + std::to_string(round));
        ASSERT_TRUE(ino.ok());
        ASSERT_NE(layout.InodeTableBlock(*ino), layout.InodeTableBlock(kRootInode));
        ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kCreateBytes, round + 1)).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        created++;
        cuts.push_back({stack.CaptureCrashImage(), acked, created});
      }
    }, kAppenders);
    stack.sim().Run();
    ASSERT_EQ(cuts.size(), static_cast<size_t>((kAppenders + 1) * kRounds));
  }
  int lost = 0;
  for (size_t c = 0; c < cuts.size(); ++c) {
    StorageStack after(cfg, cuts[c].image);
    ASSERT_TRUE(after.MountExisting().ok());
    after.Run([&] {
      for (int a = 0; a < kAppenders; ++a) {
        const uint64_t acked = cuts[c].acked[a];
        auto size = after.fs().FileSize(inos[a]);
        ASSERT_TRUE(size.ok());
        // A neighbour's entry may carry an append still in flight, so the
        // file may be longer; its acknowledged bytes must all be there.
        Buffer got(std::min(*size, acked));
        ASSERT_TRUE(after.fs().Read(inos[a], 0, got).ok());
        bool intact = *size >= acked;
        for (uint64_t i = 0; intact && i < got.size(); ++i) {
          intact = got[i] == byte_at(a, i);
        }
        if (!intact) {
          lost++;
          ADD_FAILURE() << "cut " << c << ": /mail" << a << " holds " << *size
                        << " bytes, acknowledged " << acked;
        }
      }
      for (int round = 0; round < cuts[c].created; ++round) {
        const std::string path = "/new" + std::to_string(round);
        auto ino = after.fs().Lookup(path);
        Buffer got(kCreateBytes);
        if (!ino.ok() || !after.fs().Read(*ino, 0, got).ok() ||
            got != Buffer(kCreateBytes, round + 1)) {
          lost++;
          ADD_FAILURE() << "cut " << c << ": " << path << " lost its acknowledged bytes";
        }
      }
    });
  }
  EXPECT_EQ(lost, 0);
}

// --- Mount-time charges ----------------------------------------------------

// A mount pays for the bytes its scan of the tier reads (the control block,
// then the ring from the drain frontier to the probe that ends the scan),
// not for the whole region.
TEST(NvlogMountTest, InitChargesFormatAndTheScannedBytes) {
  Simulator sim;
  NvmDevice nvm(&sim, SmallNvm(16 << 20));
  NvLog log(&sim, &nvm);
  NvLogScan scan;
  uint64_t elapsed = 0;
  sim.Spawn("mount", [&] {
    scan = log.Init();
    elapsed = sim.now();
  });
  sim.Run();
  EXPECT_TRUE(scan.ctrl.valid);
  EXPECT_TRUE(scan.tail.empty());
  // The control block and the 32-byte probe of the empty ring's first slot.
  EXPECT_EQ(scan.scanned_bytes, kNvLogCtrlBytes + 32);
  // Format: magic, head word and end marker (one 60 ns line each) and one
  // 500 ns fence, then two 170 ns lines of scan.
  EXPECT_EQ(elapsed, 3u * 60 + 500 + 2 * 170);
}

TEST(NvlogMountTest, RecoverReusesTheMountScanAndChargesOnlyTheReplay) {
  StackConfig cfg = NvlogStackConfig();
  cfg.nvm.size_bytes = 16 << 20;
  cfg.fs.nvlog_drain_delay_ns = 1'000'000'000;  // nothing drains before the cut
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  CrashImage image;
  stack.Run([&] {
    for (int i = 0; i < 3; ++i) {
      auto ino = stack.fs().Create("/mount_" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(2 * kFsBlockSize, 0x60 + i)).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
    image = stack.CaptureCrashImage();  // the drainer still sleeps
  });
  const NvLogScan scan = ScanNvLogImage(image.nvm);
  ASSERT_EQ(scan.tail.size(), 3u);
  size_t tail_bytes = 0;
  for (const NvLogEntryInfo& e : scan.tail) {
    tail_bytes += e.entry_bytes;
  }
  EXPECT_EQ(scan.scanned_bytes, kNvLogCtrlBytes + tail_bytes + 32);

  StorageStack booted(cfg, image);
  Tracer& tracer = booted.EnableTracing();
  ASSERT_TRUE(booted.MountExisting().ok());
  const Tracer::PointAgg& recover = tracer.agg(TracePoint::kNvlogRecover);
  ASSERT_EQ(recover.count, 1u);
  // Three entries' home writes, a flush and the head store and fence; the
  // payloads were read by the mount's scan.
  EXPECT_EQ(recover.total_ns, 228'501u);
  ASSERT_TRUE(booted.Unmount().ok());
}

// --- The 13th online monitor: nvm.log_drain_order -------------------------

uint64_t RunNvlogWorkloadWithMonitors(StackConfig cfg) {
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  CCNVME_CHECK(stack.MkfsAndMount().ok());
  stack.Run([&] {
    for (int i = 0; i < 5; ++i) {
      auto ino = stack.fs().Create("/mon_" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
      CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
    }
  });
  CCNVME_CHECK(stack.Unmount().ok());
  return metrics.monitors().violations(MonitorId::kNvlogDrainOrder);
}

TEST(NvlogMonitorTest, CorrectProtocolHasNoViolations) {
  EXPECT_EQ(RunNvlogWorkloadWithMonitors(NvlogStackConfig()), 0u);
}

// INJECTED BUG: fsync returns without the persist barrier, so the drainer
// checkpoints entries whose log records are still volatile. The monitor
// must fire the moment the first such checkpoint is issued.
TEST(NvlogMonitorTest, SkippedFenceIsCaughtLive) {
  StackConfig cfg = NvlogStackConfig();
  cfg.fs.test_skip_nvlog_fence = true;
  EXPECT_GT(RunNvlogWorkloadWithMonitors(cfg), 0u)
      << "monitor failed to catch the skipped NVM persist barrier";
}

// Eight appenders on four queues and four drainers with a short absorb
// window, so batches are claimed while appends are in flight. Each appender
// overwrites its own block, and the eight inodes sit in eight inode-table
// blocks, so no two appenders' entries share a home block and a batch can
// run up to the newest entry. mu_ does not cover an appender's barrier, so
// that entry may not be covered yet; the drainers must leave it alone.
// Checked two ways: the drain-order monitor checks each entry when its batch
// is claimed, and every home-block write the drainers issue must carry
// content from an entry of the durable log (what a cut right then keeps), at
// or below durable_seq(). |load_line_ns| is the NVM read cost per line.
void RunEightAppendersAgainstFourDrainers(uint64_t load_line_ns) {
  StackConfig cfg = NvlogStackConfig();
  cfg.num_queues = 4;
  cfg.nvm.load_line_ns = load_line_ns;
  cfg.fs.nvlog_drainers = 4;
  cfg.fs.nvlog_drain_delay_ns = 1'000;
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  auto* journal = dynamic_cast<NvLogJournal*>(stack.fs().journal());
  ASSERT_NE(journal, nullptr);
  bool appending = false;
  size_t checked = 0;
  stack.SetRecorder([&](const BioEvent& ev) {
    if (!appending || ev.op != BioOp::kWrite) {
      return;
    }
    checked++;
    const PageImage& durable = stack.nvm_device()->durable_image();
    const NvLogScan scan = ScanNvLogImage(durable);
    uint64_t seq = 0;
    for (const NvLogEntryInfo& e : scan.tail) {
      for (size_t b = 0; b < e.home_lbas.size(); ++b) {
        if (e.home_lbas[b] == ev.lba && ReadNvLogPayload(durable, e, b) == ev.data) {
          seq = e.seq;
        }
      }
    }
    EXPECT_NE(seq, 0u) << "block " << ev.lba << " checkpointed before its entry was durable";
    EXPECT_LE(seq, journal->log().durable_seq()) << "block " << ev.lba;
  });

  constexpr int kAppenders = 8;
  const int per_table_block = static_cast<int>(FsLayout::kInodesPerBlockConst());
  std::vector<InodeNum> inos;
  stack.Run([&] {
    for (int i = 0; i < kAppenders * per_table_block; ++i) {
      auto ino = stack.fs().Create("/app_" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      if (i % per_table_block == 0) {
        ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, 0)).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        inos.push_back(*ino);
      }
    }
  });
  ASSERT_EQ(inos.size(), static_cast<size_t>(kAppenders));
  appending = true;
  for (int i = 0; i < kAppenders; ++i) {
    stack.Spawn("app" + std::to_string(i), [&, i] {
      for (int round = 0; round < 6; ++round) {
        Simulator::Sleep(7'000 * static_cast<uint64_t>(i + round));  // think time
        const Buffer data(kFsBlockSize, static_cast<uint8_t>(16 * i + round + 1));
        ASSERT_TRUE(stack.fs().Write(inos[i], 0, data).ok());
        ASSERT_TRUE(stack.fs().Fsync(inos[i]).ok());
      }
    }, static_cast<uint16_t>(i % cfg.num_queues));
  }
  stack.sim().Run();
  appending = false;
  EXPECT_GT(checked, 0u) << "no batch was drained while appenders were active";
  EXPECT_EQ(metrics.monitors().violations(MonitorId::kNvlogDrainOrder), 0u);
  ASSERT_TRUE(stack.Unmount().ok());
}

// Fast NVM reads let a drainer issue a block's home write while the entry's
// 500 ns barrier would still be running, so the write-time durable-log check
// also catches a drainer that claims unfenced entries.
TEST(NvlogConcurrencyTest, EightAppendersNeverCheckpointAnUnfencedEntry) {
  RunEightAppendersAgainstFourDrainers(1);
}

// At the default read cost a drainer spends about 11 us reading back each
// block of a batch, long enough for a barrier to cover every entry it
// claimed; the monitor's claim-time check must still see an unfenced claim.
TEST(NvlogConcurrencyTest, EightAppendersNeverCheckpointAnUnfencedEntryAtDefaultReadCost) {
  RunEightAppendersAgainstFourDrainers(NvmConfig{}.load_line_ns);
}

// --- Crash images carry the NVM tier --------------------------------------

TEST(NvmImageTest, CrashImageAndFileRoundTripCarryNvm) {
  StorageStack stack(NvlogStackConfig());
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/img");
    ASSERT_TRUE(ino.ok());
    Buffer data(kFsBlockSize, 0x42);
    ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
  });
  const CrashImage image = stack.CaptureCrashImage();
  ASSERT_EQ(image.nvm.size(), stack.nvm_device()->size());
  EXPECT_EQ(image.nvm.ReadU64(0), kNvLogMagic);

  const std::string path = "nvm_test_image.ccim";
  ASSERT_TRUE(SaveImage(image, path).ok());
  Result<CrashImage> loaded = LoadImage(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Bytes(loaded->nvm), Bytes(image.nvm));
  std::remove(path.c_str());
}

// --- Randomized crash sampling over the NVLog stack -----------------------

void ExpectAllPass(const CrashTestReport& report) {
  EXPECT_TRUE(report.AllPassed())
      << report.passed << "/" << report.crash_points << " passed; first failures:\n"
      << (report.failures.empty() ? "(none)" : report.failures[0]);
}

TEST(NvlogCrashMonkeyTest, Appends) {
  CrashMonkey monkey(NvlogStackConfig(), /*seed=*/21);
  ExpectAllPass(monkey.Run(CrashMonkey::NvlogAppends(), 40));
}

TEST(NvlogCrashMonkeyTest, OverwriteChurn) {
  CrashMonkey monkey(NvlogStackConfig(), /*seed=*/22);
  ExpectAllPass(monkey.Run(CrashMonkey::NvlogOverwriteChurn(), 40));
}

// --- Torn-store determinism under the parallel crash executor -------------

TEST(NvlogDeterminismTest, ParallelExplorationMatchesSerial) {
  Result<CrashWorkload> workload = FindCrashWorkload("nvlog_overwrite_churn");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(NvlogStackConfig(), *workload);
  // The recording must actually contain NVM traffic to make this meaningful.
  size_t nvm_writes = 0, nvm_fences = 0;
  for (const BioEvent& ev : rec.events) {
    nvm_writes += ev.op == BioOp::kNvmWrite ? 1 : 0;
    nvm_fences += ev.op == BioOp::kNvmFence ? 1 : 0;
  }
  ASSERT_GT(nvm_writes, 0u);
  ASSERT_GT(nvm_fences, 0u);

  ExplorerOptions serial;
  serial.seed = 42;
  serial.threads = 1;
  ExplorerOptions parallel = serial;
  const unsigned hw = std::thread::hardware_concurrency();
  parallel.threads = hw < 4 ? 4 : hw;

  const ExplorerReport a = ExploreRecording(rec, serial);
  const ExplorerReport b = ExploreRecording(rec, parallel);
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.states_checked, b.states_checked);
  EXPECT_EQ(a.total_failures, b.total_failures);
}

}  // namespace
}  // namespace ccnvme
