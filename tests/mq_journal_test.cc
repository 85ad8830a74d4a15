// Focused MQFS multi-queue journaling tests (§5.2-§5.4): cross-queue
// version ordering through the radix trees, checkpoint correctness under a
// tiny journal, concurrent cross-queue updates to shared metadata blocks,
// and recovery ordering by global transaction id.
#include <gtest/gtest.h>

#include "src/harness/stack.h"
#include "src/mqfs/mq_journal.h"
#include "src/trace/tracer.h"

namespace ccnvme {
namespace {

StackConfig Config(uint16_t queues, uint64_t blocks_per_area) {
  StackConfig cfg;
  cfg.num_queues = queues;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = queues;
  cfg.fs.journal_blocks = blocks_per_area * queues;
  return cfg;
}

TEST(MqJournalTest, CrossQueueUpdatesToSharedBlockConvergeToNewest) {
  // Two queues repeatedly fsync files whose inodes share one table block;
  // both journal areas accumulate versions of that block. After a crash,
  // replay by TxID must converge to the newest state: every file present
  // with its final content.
  const StackConfig cfg = Config(2, 1024);
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    // Sequential creates -> inodes 2..9 share inode-table block 0.
    stack.Run([&] {
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(stack.fs().Create("/s" + std::to_string(i)).ok());
      }
    });
    int done = 0;
    for (uint16_t q = 0; q < 2; ++q) {
      stack.Spawn("w" + std::to_string(q), [&, q] {
        for (int round = 0; round < 12; ++round) {
          for (int i = q; i < 8; i += 2) {
            auto ino = stack.fs().Lookup("/s" + std::to_string(i));
            ASSERT_TRUE(ino.ok());
            ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(256,
                        static_cast<uint8_t>(round * 8 + i))).ok());
            ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
          }
        }
        done++;
      }, q);
    }
    stack.sim().Run();
    ASSERT_EQ(done, 2);
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
    for (int i = 0; i < 8; ++i) {
      auto ino = after.fs().Lookup("/s" + std::to_string(i));
      ASSERT_TRUE(ino.ok()) << "/s" << i;
      Buffer out(256);
      ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
      // Final round was 11: content byte is 11*8+i.
      EXPECT_EQ(out[0], static_cast<uint8_t>(11 * 8 + i)) << "/s" << i;
    }
  });
}

TEST(MqJournalTest, TinyJournalForcesCheckpointsWithoutCorruption) {
  const StackConfig cfg = Config(2, 96);  // minimal legal area
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    int done = 0;
    for (uint16_t q = 0; q < 2; ++q) {
      stack.Spawn("w" + std::to_string(q), [&, q] {
        auto ino = stack.fs().Create("/t" + std::to_string(q));
        ASSERT_TRUE(ino.ok());
        for (int i = 0; i < 120; ++i) {
          ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize,
                       static_cast<uint8_t>(i))).ok());
          ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        }
        done++;
      }, q);
    }
    stack.sim().Run();
    ASSERT_EQ(done, 2);
    auto* mq = dynamic_cast<MqJournal*>(stack.fs().journal());
    ASSERT_NE(mq, nullptr);
    EXPECT_GT(mq->checkpoints(), 0u) << "the tiny journal must have checkpointed";
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
    for (uint16_t q = 0; q < 2; ++q) {
      auto ino = after.fs().Lookup("/t" + std::to_string(q));
      ASSERT_TRUE(ino.ok());
      Buffer out(kFsBlockSize);
      ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
      EXPECT_EQ(out, Buffer(kFsBlockSize, 119));
    }
  });
}

TEST(MqJournalTest, FatomicPipelineAcrossCheckpointPressure) {
  // fatomic returns before durability; under journal pressure the pipeline
  // must backpressure through checkpoints rather than lose transactions.
  const StackConfig cfg = Config(1, 128);
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  stack.Run([&] {
    auto ino = stack.fs().Create("/pipe");
    ASSERT_TRUE(ino.ok());
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize,
                   static_cast<uint8_t>(i))).ok());
      ASSERT_TRUE(stack.fs().Fatomic(*ino).ok());
    }
    // One durable barrier at the end.
    ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, 0xFF)).ok());
    ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
  });
  const CrashImage image = stack.CaptureCrashImage();
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/pipe");
    ASSERT_TRUE(ino.ok());
    Buffer out(kFsBlockSize);
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Buffer(kFsBlockSize, 0xFF));
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(MqJournalTest, RecoveryOrdersByGlobalTxIdAcrossAreas) {
  // A block updated alternately from two queues: the journal areas each
  // hold interleaved versions; replay must honour the GLOBAL TxID order,
  // not per-area order. The shared root-directory block gives us exactly
  // that pattern via alternating creates.
  const StackConfig cfg = Config(2, 1024);
  CrashImage image;
  int total = 0;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    // Strictly alternate queues so the root dir block's versions interleave.
    for (int i = 0; i < 10; ++i) {
      const uint16_t q = static_cast<uint16_t>(i % 2);
      stack.Spawn("c" + std::to_string(i), [&, i] {
        auto ino = stack.fs().Create("/alt" + std::to_string(i));
        CCNVME_CHECK(ino.ok());
        Status st = stack.fs().Fsync(*ino);
        CCNVME_CHECK(st.ok());
      }, q);
      stack.sim().Run();  // serialize: one create at a time, alternating
      total++;
    }
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto entries = after.fs().ListDir("/");
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(total))
        << "an out-of-order replay dropped directory entries";
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(MqJournalTest, SameQueueFsyncIsStagedWhileTheNeighbourIsInFlight) {
  // Two contexts on one core fsync their own files at the same instant. The
  // queue's build_mu covers staging through the P-SQDB ring only, so the
  // second transaction is rung before the first is durable, and the second
  // fsync's journal-handle wait is at most the first one's staging window
  // (Figure 14's atomicity span), not its durability wait.
  StorageStack stack(Config(1, 1024));
  Tracer& tracer = stack.EnableTracing();
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  std::vector<InodeNum> inos;
  stack.Run([&] {
    for (int i = 0; i < 2; ++i) {
      auto ino = stack.fs().Create("/ctx" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      inos.push_back(*ino);
    }
  });
  tracer.ResetAggregation();
  const uint64_t start = stack.sim().now();
  for (int i = 0; i < 2; ++i) {
    stack.Spawn("ctx" + std::to_string(i), [&, i] {
      ASSERT_TRUE(stack.fs().Write(inos[i], 0, Buffer(4 * kFsBlockSize, 0x30 + i)).ok());
      ASSERT_TRUE(stack.fs().Fsync(inos[i]).ok());
    }, 0);
  }
  stack.sim().Run();

  std::vector<TraceEvent> rings;
  std::vector<TraceEvent> durable;
  std::vector<TraceEvent> atomic;
  for (size_t i = 0; i < tracer.size(); ++i) {
    const TraceEvent& ev = tracer.event(i);
    if (ev.ts_ns < start || ev.is_wait_edge()) {
      continue;
    }
    if (!ev.is_span && ev.point == TracePoint::kPsqDoorbell) {
      rings.push_back(ev);
    } else if (!ev.is_span && ev.point == TracePoint::kTxDurable) {
      durable.push_back(ev);
    } else if (ev.is_span && ev.point == TracePoint::kSyncAtomic) {
      atomic.push_back(ev);
    }
  }
  ASSERT_EQ(rings.size(), 2u);
  ASSERT_EQ(durable.size(), 2u);
  ASSERT_EQ(atomic.size(), 2u);
  const uint64_t first_tx = rings[0].tx_id;
  EXPECT_EQ(durable[0].tx_id, first_tx);
  EXPECT_LT(rings[1].ts_ns, durable[0].ts_ns)
      << "the second transaction was rung only after the first was durable";

  const Tracer::PointAgg& handle = tracer.edge_agg(WaitEdge::kJournalHandle);
  ASSERT_EQ(handle.count, 1u) << "exactly one context waits for the other";
  const TraceEvent& first_staging = atomic[0].tx_id == first_tx ? atomic[0] : atomic[1];
  EXPECT_GT(handle.total_ns, 0u);
  EXPECT_LE(handle.total_ns, first_staging.dur_ns)
      << "the handle wait covered the neighbour's durability wait";
}

}  // namespace
}  // namespace ccnvme
