// Multi-device volume layer tests: striping geometry, cross-device I/O
// round-trips, mirrored writes, degraded operation after a leg failure,
// background rebuild completeness, and crash-image round-trips through a
// mounted file system.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/harness/stack.h"

namespace ccnvme {
namespace {

StackConfig StripeConfig(uint16_t devices, uint32_t chunk_blocks) {
  StackConfig cfg;
  cfg.num_devices = devices;
  cfg.volume.kind = VolumeKind::kStripe;
  cfg.volume.chunk_blocks = chunk_blocks;
  return cfg;
}

StackConfig MirrorConfig(uint16_t devices) {
  StackConfig cfg;
  cfg.num_devices = devices;
  cfg.volume.kind = VolumeKind::kMirror;
  return cfg;
}

Buffer PatternBlocks(uint32_t num_blocks, uint8_t seed) {
  Buffer data(static_cast<size_t>(num_blocks) * kLbaSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(seed + i / kLbaSize + (i % 251));
  }
  return data;
}

TEST(VolumeMappingTest, StripeGeometry) {
  StorageStack stack(StripeConfig(4, 2));
  ASSERT_NE(stack.volume(), nullptr);
  // Chunk 0 -> dev 0, chunk 1 -> dev 1, ..., chunk 4 -> dev 0 at offset 2.
  auto one = stack.volume()->MapExtents(0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].device, 0);
  EXPECT_EQ(one[0].dev_lba, 0u);

  auto wrap = stack.volume()->MapExtents(8, 2);  // chunk 4 = dev 0, round 1
  ASSERT_EQ(wrap.size(), 1u);
  EXPECT_EQ(wrap[0].device, 0);
  EXPECT_EQ(wrap[0].dev_lba, 2u);

  // A span crossing three chunks splits into three extents with correct
  // buffer offsets.
  auto span = stack.volume()->MapExtents(1, 4);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_EQ(span[0].device, 0);
  EXPECT_EQ(span[0].dev_lba, 1u);
  EXPECT_EQ(span[0].num_blocks, 1u);
  EXPECT_EQ(span[0].buf_offset, 0u);
  EXPECT_EQ(span[1].device, 1);
  EXPECT_EQ(span[1].dev_lba, 0u);
  EXPECT_EQ(span[1].num_blocks, 2u);
  EXPECT_EQ(span[1].buf_offset, 1u);
  EXPECT_EQ(span[2].device, 2);
  EXPECT_EQ(span[2].dev_lba, 0u);
  EXPECT_EQ(span[2].num_blocks, 1u);
  EXPECT_EQ(span[2].buf_offset, 3u);
}

TEST(VolumeMappingTest, MirrorMapsIdentity) {
  StorageStack stack(MirrorConfig(3));
  auto e = stack.volume()->MapExtents(123, 7);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].device, 0);  // primary (lowest live) leg
  EXPECT_EQ(e[0].dev_lba, 123u);
  EXPECT_EQ(e[0].num_blocks, 7u);
}

TEST(VolumeIoTest, StripedWriteSpansDevicesAndReadsBack) {
  StorageStack stack(StripeConfig(2, 1));
  stack.Run([&] {
    Volume* vol = stack.volume();
    const Buffer data = PatternBlocks(4, 0x10);
    ASSERT_TRUE(stack.nvme().Wait(vol->SubmitWrite(0, 0, &data, 0)).ok());

    // Volume-order read reassembles the striped extents.
    Buffer out;
    ASSERT_TRUE(vol->Read(0, 0, 4, &out).ok());
    EXPECT_EQ(out, data);

    // Even volume blocks landed on device 0, odd ones on device 1.
    for (uint32_t b = 0; b < 4; ++b) {
      Buffer leg;
      ASSERT_TRUE(stack.nvme(b % 2).Read(0, b / 2, 1, &leg).ok());
      EXPECT_TRUE(std::equal(leg.begin(), leg.end(),
                             data.begin() + static_cast<size_t>(b) * kLbaSize))
          << "volume block " << b;
    }
  });
}

TEST(VolumeIoTest, MirrorWritesReachEveryLeg) {
  StorageStack stack(MirrorConfig(2));
  stack.Run([&] {
    const Buffer data = PatternBlocks(2, 0x33);
    ASSERT_TRUE(stack.nvme().Wait(stack.volume()->SubmitWrite(0, 40, &data, 0)).ok());
    ASSERT_TRUE(stack.volume()->Flush(0).ok());
    for (uint16_t d = 0; d < 2; ++d) {
      Buffer leg;
      ASSERT_TRUE(stack.nvme(d).Read(0, 40, 2, &leg).ok());
      EXPECT_EQ(leg, data) << "leg " << d;
    }
  });
}

// Virtual time of one 4 KB WriteSync through the block layer at volume LBA 0.
uint64_t BlockWriteSyncNs(const StackConfig& cfg) {
  StorageStack stack(cfg);
  uint64_t elapsed = 0;
  stack.Run([&] {
    const Buffer data = PatternBlocks(1, 0x42);
    const uint64_t begin = stack.sim().now();
    ASSERT_TRUE(stack.blk().WriteSync(0, data).ok());
    elapsed = stack.sim().now() - begin;
  });
  return elapsed;
}

TEST(VolumeIoTest, OneLegWriteCostsWhatASingleDeviceWriteCosts) {
  // The write lands wholly on device 0, so the stripe must hand back that
  // leg's own request: the caller wakes after the driver's wake-up cost,
  // exactly as on a one-device stack.
  const uint64_t single = BlockWriteSyncNs(StackConfig{});
  EXPECT_GT(single, 0u);
  EXPECT_EQ(BlockWriteSyncNs(StripeConfig(2, 64)), single);
}

TEST(VolumeFaultTest, DegradedReadsAfterLegFailure) {
  StorageStack stack(MirrorConfig(2));
  stack.Run([&] {
    Volume* vol = stack.volume();
    const Buffer data = PatternBlocks(1, 0x55);
    ASSERT_TRUE(stack.nvme().Wait(vol->SubmitWrite(0, 7, &data, 0)).ok());

    vol->FailDevice(0);
    EXPECT_FALSE(vol->alive(0));
    EXPECT_TRUE(vol->alive(1));

    // Reads fail over to the surviving leg.
    Buffer out;
    ASSERT_TRUE(vol->Read(0, 7, 1, &out).ok());
    EXPECT_EQ(out, data);

    // Degraded writes only touch the live leg.
    const Buffer later = PatternBlocks(1, 0x77);
    ASSERT_TRUE(stack.nvme().Wait(vol->SubmitWrite(0, 8, &later, 0)).ok());
    Buffer leg1;
    ASSERT_TRUE(stack.nvme(1).Read(0, 8, 1, &leg1).ok());
    EXPECT_EQ(leg1, later);
  });
}

TEST(VolumeFaultTest, RebuildRestoresEveryDurableBlock) {
  StorageStack stack(MirrorConfig(2));
  stack.Run([&] {
    Volume* vol = stack.volume();
    // Durable content on both legs, then lose leg 1.
    for (uint64_t lba : {3u, 4u, 5u, 100u}) {
      const Buffer data = PatternBlocks(1, static_cast<uint8_t>(lba));
      ASSERT_TRUE(stack.nvme().Wait(vol->SubmitWrite(0, lba, &data, 0)).ok());
    }
    ASSERT_TRUE(vol->Flush(0).ok());
    vol->FailDevice(1);

    // Diverge while degraded: new and overwritten blocks only reach leg 0.
    for (uint64_t lba : {4u, 200u}) {
      const Buffer data = PatternBlocks(1, static_cast<uint8_t>(0x80 + lba));
      ASSERT_TRUE(stack.nvme().Wait(vol->SubmitWrite(0, lba, &data, 0)).ok());
    }

    ASSERT_TRUE(vol->RebuildDevice(1, 0).ok());
    EXPECT_TRUE(vol->alive(1));

    // Rebuild completeness: the legs' durable media are identical.
    const MediaStore::BlockMap a = stack.ssd(0).media().SnapshotDurable();
    const MediaStore::BlockMap b = stack.ssd(1).media().SnapshotDurable();
    EXPECT_EQ(a.size(), b.size());
    EXPECT_TRUE(a == b) << "rebuilt leg diverges from the source leg";

    // And the rebuilt leg serves reads again once the primary fails.
    vol->FailDevice(0);
    Buffer out;
    ASSERT_TRUE(vol->Read(0, 200, 1, &out).ok());
    EXPECT_EQ(out, PatternBlocks(1, static_cast<uint8_t>(0x80 + 200)));
  });
}

TEST(VolumeFaultTest, MirrorLegFailureMidTransactionStillCommits) {
  StorageStack stack(MirrorConfig(2));
  stack.Run([&] {
    Volume* vol = stack.volume();
    const Buffer slice = PatternBlocks(1, 0x21);
    const Buffer descriptor = PatternBlocks(1, 0x42);
    vol->SubmitTx(0, 1, 50, &slice);
    // Leg 1 dies between the member submissions and the commit: its staged
    // (unrung) slices are aborted and the commit proceeds on the survivor.
    vol->FailDevice(1);
    CcNvmeDriver::TxHandle tx = vol->CommitTx(0, 1, 60, &descriptor);
    tx->durable.Wait();
    EXPECT_GT(tx->atomic_at_ns, 0u);
    EXPECT_GE(tx->durable_at_ns, tx->atomic_at_ns);

    Buffer out;
    ASSERT_TRUE(vol->Read(0, 50, 1, &out).ok());
    EXPECT_EQ(out, slice);
  });
}

TEST(VolumeFsTest, StripedFilesystemRoundTripsThroughCrashImage) {
  StackConfig cfg = StripeConfig(4, 8);
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 2;
  cfg.fs.journal_blocks = 2048;
  cfg.num_queues = 2;
  const Buffer payload = PatternBlocks(3, 0x61);

  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/striped");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, payload).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
  });
  const CrashImage image = stack.CaptureCrashImage();
  ASSERT_EQ(image.devices.size(), 4u);

  // Boot a fresh stack from the captured per-device durable state.
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/striped");
    ASSERT_TRUE(ino.ok());
    Buffer out(payload.size());
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, payload);
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(VolumeFsTest, MirroredFilesystemRoundTripsThroughCrashImage) {
  StackConfig cfg = MirrorConfig(2);
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 2048;
  const Buffer payload = PatternBlocks(2, 0x29);

  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/mirrored");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(stack.fs().Write(*ino, 0, payload).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
  });
  const CrashImage image = stack.CaptureCrashImage();
  ASSERT_EQ(image.devices.size(), 2u);

  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/mirrored");
    ASSERT_TRUE(ino.ok());
    Buffer out(payload.size());
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, payload);
  });
}

// Booting resyncs every mirror leg from leg 0's image, and the legs share
// those blocks; a write to one leg must still leave the other leg (and the
// image) with the bytes they had.
TEST(VolumeFsTest, ResyncedMirrorLegsShareBlocksButNotWrites) {
  StackConfig cfg = MirrorConfig(2);
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 2048;
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    image = stack.CaptureCrashImage();
  }
  ASSERT_FALSE(image.devices[0].media.empty());
  const auto& [block, blk] = *image.devices[0].media.begin();
  const Buffer original(blk.data(), blk.data() + blk.size());
  const Buffer data = PatternBlocks(1, 0x5D);
  ASSERT_NE(original, data);

  StorageStack after(cfg, image);
  {
    const MediaStore::BlockMap leg0 = after.ssd(0).media().SnapshotDurable();
    const MediaStore::BlockMap leg1 = after.ssd(1).media().SnapshotDurable();
    ASSERT_EQ(leg0.size(), leg1.size());
    for (const auto& [lba, leg0_blk] : leg0) {
      EXPECT_TRUE(leg0_blk.SharesBytesWith(leg1.at(lba))) << "block " << lba;
    }
  }
  after.ssd(1).media().WriteDurable(block * kLbaSize, data);
  Buffer out(kLbaSize);
  after.ssd(1).media().ReadDurable(block * kLbaSize, out);
  EXPECT_EQ(out, data);
  after.ssd(0).media().ReadDurable(block * kLbaSize, out);
  EXPECT_EQ(out, original) << "the write reached the other leg";
  EXPECT_EQ(Buffer(blk.data(), blk.data() + blk.size()), original)
      << "the write reached the image";
}

TEST(VolumeTxTest, UnfinishedCommitReleasesItsStateAtTeardown) {
  // A transaction cut off before it is durable must not keep the volume's
  // per-commit state (and the caller's on_durable) alive through a member
  // transaction's own callback.
  std::weak_ptr<int> token;
  {
    StorageStack stack(StripeConfig(2, 1));
    auto held = std::make_shared<int>(0);
    token = held;
    const Buffer a = PatternBlocks(1, 0x21);
    const Buffer b = PatternBlocks(1, 0x22);
    const Buffer desc = PatternBlocks(1, 0x23);
    CcNvmeDriver::TxHandle tx;
    stack.Spawn("tx", [&, held = std::move(held)] {
      stack.blk().SubmitTxWrite(9, 0, &a);  // device 0
      stack.blk().SubmitTxWrite(9, 1, &b);  // device 1
      tx = stack.blk().CommitTx(9, 2, &desc, [held] {});
    });
    for (int i = 0; i < 1000 && tx == nullptr; ++i) stack.sim().RunFor(1000);
    ASSERT_NE(tx, nullptr);
    ASSERT_EQ(tx->durable_at_ns, 0u) << "the commit must still be in flight";
  }
  EXPECT_TRUE(token.expired());
}

TEST(VolumeRecoveryTest, RecoveredWindowIsTheUnionOfMemberWindows) {
  StackConfig cfg = StripeConfig(2, 1);
  StorageStack stack(cfg);
  stack.Run([&] {
    Volume* vol = stack.volume();
    // Stage a transaction whose slices land on both devices, then commit.
    const Buffer a = PatternBlocks(1, 0x01);
    const Buffer b = PatternBlocks(1, 0x02);
    vol->SubmitTx(0, 9, 0, &a);  // device 0
    vol->SubmitTx(0, 9, 1, &b);  // device 1
    const Buffer desc = PatternBlocks(1, 0x03);
    CcNvmeDriver::TxHandle tx = vol->CommitTx(0, 9, 2, &desc);
    tx->durable.Wait();
  });
  // A freshly booted stack from the post-run image sees empty windows on
  // every device (all heads advanced), and the union reflects that.
  const CrashImage image = stack.CaptureCrashImage();
  StorageStack after(cfg, image);
  EXPECT_TRUE(after.volume()->RecoveredWindow().empty());
}

}  // namespace
}  // namespace ccnvme
