// Tests for the ccNVMe driver: transaction atomicity/durability semantics,
// transaction-aware MMIO traffic (Table 1), in-order completion (§4.4), the
// persistent unfinished-transaction window, and the flush-barrier commit on
// volatile-cache drives.
#include <algorithm>

#include <gtest/gtest.h>

#include "src/block/block_layer.h"
#include "src/common/rng.h"
#include "src/ccnvme/ccnvme_driver.h"

namespace ccnvme {
namespace {

Buffer MakeBlock(uint8_t fill, size_t blocks = 1) {
  return Buffer(blocks * kLbaSize, fill);
}

struct CcStack {
  explicit CcStack(const SsdConfig& ssd_cfg = SsdConfig::Optane905P(), uint16_t num_queues = 1,
                   CcNvmeOptions opts = {}, bool tx_aware_irq = false) {
    sim = std::make_unique<Simulator>();
    link = std::make_unique<PcieLink>(sim.get(), PcieConfig{});
    ssd = std::make_unique<SsdModel>(sim.get(), ssd_cfg);
    NvmeControllerConfig ctrl_cfg;
    ctrl_cfg.num_io_queues = num_queues;
    ctrl_cfg.tx_aware_irq_coalescing = tx_aware_irq;
    ctrl = std::make_unique<NvmeController>(sim.get(), link.get(), ssd.get(), ctrl_cfg);
    opts.num_queues = num_queues;
    cc = std::make_unique<CcNvmeDriver>(sim.get(), link.get(), ctrl.get(), opts);
  }
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<PcieLink> link;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<NvmeController> ctrl;
  std::unique_ptr<CcNvmeDriver> cc;
};

TEST(CcNvmeTest, TransactionWritesReachMedia) {
  CcStack s;
  s.sim->Spawn("app", [&] {
    const Buffer a = MakeBlock(0xA1);
    const Buffer b = MakeBlock(0xB2);
    const Buffer jd = MakeBlock(0xCC);
    s.cc->SubmitTx(0, 1, 10, &a);
    s.cc->SubmitTx(0, 1, 20, &b);
    auto tx = s.cc->CommitTx(0, 1, 30, &jd);
    s.cc->WaitDurable(tx);
    Buffer out(kLbaSize);
    s.ssd->media().ReadDurable(10 * kLbaSize, out);
    EXPECT_EQ(out, a);
    s.ssd->media().ReadDurable(20 * kLbaSize, out);
    EXPECT_EQ(out, b);
    s.ssd->media().ReadDurable(30 * kLbaSize, out);
    EXPECT_EQ(out, jd);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(CcNvmeTest, AtomicityPointIsMuchEarlierThanDurability) {
  CcStack s;
  uint64_t atomic_lat = 0;
  uint64_t durable_lat = 0;
  s.sim->Spawn("app", [&] {
    std::vector<Buffer> blocks(4, MakeBlock(1));
    const uint64_t start = s.sim->now();
    for (int i = 0; i < 3; ++i) {
      s.cc->SubmitTx(0, 7, static_cast<uint64_t>(100 + i), &blocks[static_cast<size_t>(i)]);
    }
    auto tx = s.cc->CommitTx(0, 7, 103, &blocks[3]);
    atomic_lat = s.sim->now() - start;
    s.cc->WaitDurable(tx);
    durable_lat = s.sim->now() - start;
  });
  s.sim->Run();
  // §7.5.2: fatomic costs ~10 us while fsync costs ~22 us on the 905P; at
  // the driver level (no FS costs) atomicity is a few microseconds at most.
  EXPECT_LT(atomic_lat, 8'000u);
  EXPECT_GT(durable_lat, atomic_lat * 2);
  s.sim->Shutdown();
}

TEST(CcNvmeTest, Table1TrafficForMqfsA) {
  // MQFS-A/ccNVMe row of Table 1: the atomicity guarantee costs exactly
  // 2 MMIO writes (one WC burst + one P-SQDB ring), 0 DMAs, 0 block I/Os,
  // 0 IRQs — regardless of transaction size N.
  for (const int n : {1, 4, 16}) {
    CcStack s;
    s.sim->Spawn("app", [&] {
      std::vector<Buffer> blocks(static_cast<size_t>(n) + 1, MakeBlock(2));
      const TrafficStats before = s.link->SnapshotTraffic();
      for (int i = 0; i < n; ++i) {
        s.cc->SubmitTx(0, 9, static_cast<uint64_t>(200 + i), &blocks[static_cast<size_t>(i)]);
      }
      auto tx = s.cc->CommitTx(0, 9, 300, &blocks[static_cast<size_t>(n)]);
      const TrafficStats d = s.link->SnapshotTraffic() - before;
      EXPECT_EQ(d.mmio_writes, 2u) << "N=" << n;
      EXPECT_EQ(d.mmio_reads, 1u) << "persistence fence read";
      EXPECT_EQ(d.dma_queue_ops, 0u) << "N=" << n;
      EXPECT_EQ(d.block_ios, 0u) << "N=" << n;
      EXPECT_EQ(d.irqs, 0u) << "N=" << n;
      // Keep the buffers alive until the device is done with them.
      s.cc->WaitDurable(tx);
    });
    s.sim->Run();
    s.sim->Shutdown();
  }
}

TEST(CcNvmeTest, Table1TrafficForMqfsDurable) {
  // MQFS/ccNVMe row of Table 1 (durability): 4 MMIOs, N+1 queue DMAs (CQE
  // posts only — P-SQ fetches are device-internal), N+1 block I/Os, N+1
  // IRQs, where the transaction has N data blocks plus 1 journal block.
  const int n = 4;
  CcStack s;
  s.sim->Spawn("app", [&] {
    std::vector<Buffer> blocks(n + 1, MakeBlock(3));
    const TrafficStats before = s.link->SnapshotTraffic();
    for (int i = 0; i < n; ++i) {
      s.cc->SubmitTx(0, 11, static_cast<uint64_t>(400 + i), &blocks[static_cast<size_t>(i)]);
    }
    auto tx = s.cc->CommitTx(0, 11, 500, &blocks[n]);
    s.cc->WaitDurable(tx);
    const TrafficStats d = s.link->SnapshotTraffic() - before;
    EXPECT_EQ(d.mmio_writes, 4u);  // burst, P-SQDB, P-SQ-head, CQDB
    EXPECT_EQ(d.dma_queue_ops, static_cast<uint64_t>(n) + 1);
    EXPECT_EQ(d.block_ios, static_cast<uint64_t>(n) + 1);
    EXPECT_EQ(d.irqs, static_cast<uint64_t>(n) + 1);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(CcNvmeTest, PerRequestModeCostsMoreMmio) {
  CcNvmeOptions opts;
  opts.tx_aware_mmio = false;
  const int n = 4;
  CcStack s(SsdConfig::Optane905P(), 1, opts);
  s.sim->Spawn("app", [&] {
    std::vector<Buffer> blocks(n + 1, MakeBlock(4));
    const TrafficStats before = s.link->SnapshotTraffic();
    for (int i = 0; i < n; ++i) {
      s.cc->SubmitTx(0, 13, static_cast<uint64_t>(600 + i), &blocks[static_cast<size_t>(i)]);
    }
    auto tx = s.cc->CommitTx(0, 13, 700, &blocks[n]);
    const TrafficStats d = s.link->SnapshotTraffic() - before;
    // Naive mode: one burst + one doorbell per request => 2(N+1) writes and
    // N+1 persistence reads.
    EXPECT_EQ(d.mmio_writes, 2ull * (n + 1));
    EXPECT_EQ(d.mmio_reads, static_cast<uint64_t>(n) + 1);
    s.cc->WaitDurable(tx);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(CcNvmeTest, TransactionAwareCommitIsFasterThanPerRequest) {
  auto run = [](bool tx_aware) {
    CcNvmeOptions opts;
    opts.tx_aware_mmio = tx_aware;
    CcStack s(SsdConfig::Optane905P(), 1, opts);
    uint64_t atomic_lat = 0;
    s.sim->Spawn("app", [&] {
      std::vector<Buffer> blocks(9, MakeBlock(5));
      const uint64_t start = s.sim->now();
      for (int i = 0; i < 8; ++i) {
        s.cc->SubmitTx(0, 15, static_cast<uint64_t>(800 + i), &blocks[static_cast<size_t>(i)]);
      }
      auto tx = s.cc->CommitTx(0, 15, 900, &blocks[8]);
      atomic_lat = s.sim->now() - start;
      s.cc->WaitDurable(tx);
    });
    s.sim->Run();
    s.sim->Shutdown();
    return atomic_lat;
  };
  EXPECT_LT(run(true), run(false));
}

// Runs |pairs| rounds of (large transaction committed first, small
// transaction committed second) and records the order in which the driver
// reports them durable. Returns the sequence of tx ids.
std::vector<uint64_t> RunPairedTransactions(bool in_order, int pairs) {
  CcNvmeOptions opts;
  opts.in_order_completion = in_order;
  CcStack s(SsdConfig::Optane905P(), 1, opts);
  std::vector<uint64_t> order;
  s.sim->Spawn("app", [&] {
    for (int p = 0; p < pairs; ++p) {
      const uint64_t id1 = static_cast<uint64_t>(2 * p + 1);
      const uint64_t id2 = static_cast<uint64_t>(2 * p + 2);
      // 4 KB members: consecutive pipe arrivals are closer together than the
      // device's latency jitter, so the device can reorder them.
      std::vector<Buffer> big(6, MakeBlock(1));
      Buffer jd1 = MakeBlock(1);
      for (int i = 0; i < 6; ++i) {
        s.cc->SubmitTx(0, id1, static_cast<uint64_t>(1000 + i), &big[static_cast<size_t>(i)]);
      }
      auto t1 = s.cc->CommitTx(0, id1, 1100, &jd1, [&, id1] { order.push_back(id1); });
      Buffer small = MakeBlock(2);
      auto t2 = s.cc->CommitTx(0, id2, 1200, &small, [&, id2] { order.push_back(id2); });
      s.cc->WaitDurable(t1);
      s.cc->WaitDurable(t2);
    }
  });
  s.sim->Run();
  s.sim->Shutdown();
  return order;
}

TEST(CcNvmeTest, TransactionsCompleteInQueueOrder) {
  // §4.4 "first-come-first-complete": regardless of device-side reordering,
  // every pair must be reported in commit order.
  const auto order = RunPairedTransactions(/*in_order=*/true, /*pairs=*/40);
  ASSERT_EQ(order.size(), 80u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
      << "in-order completion violated";
}

TEST(CcNvmeTest, OutOfOrderAblationLeaksDeviceReordering) {
  // With in-order completion disabled, the small second transaction
  // sometimes finishes first — demonstrating that the device really does
  // complete out of order and the driver's ordering is load-bearing.
  const auto order = RunPairedTransactions(/*in_order=*/false, /*pairs=*/40);
  ASSERT_EQ(order.size(), 80u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "expected at least one device-side reordering to leak through";
}

// A durable transaction holds nothing its on_durable callbacks captured, on
// both completion paths. The volume keeps member tx handles in state that
// those callbacks capture, so a kept callback would make each volume
// commit a shared_ptr cycle that is never freed.
TEST(CcNvmeTest, DurableCallbackIsReleasedOnceItRuns) {
  for (const bool in_order : {true, false}) {
    CcNvmeOptions opts;
    opts.in_order_completion = in_order;
    CcStack s(SsdConfig::Optane905P(), 1, opts);
    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> watch = token;
    int calls = 0;
    s.sim->Spawn("app", [&] {
      const Buffer a = MakeBlock(0x3A);
      const Buffer jd = MakeBlock(0x3B);
      s.cc->SubmitTx(0, 9, 10, &a);
      auto tx = s.cc->CommitTx(0, 9, 11, &jd, [&calls, token = std::move(token)] { ++calls; });
      s.cc->WaitDurable(tx);
      EXPECT_EQ(calls, 1) << "in_order=" << in_order;
      EXPECT_TRUE(watch.expired()) << "in_order=" << in_order
                                   << ": the durable transaction still owns its callback";
    });
    s.sim->Run();
    s.sim->Shutdown();
  }
}

TEST(CcNvmeTest, UnfinishedWindowVisibleUntilCompletion) {
  CcStack s;
  s.sim->Spawn("app", [&] {
    Buffer a = MakeBlock(6);
    Buffer jd = MakeBlock(7);
    s.cc->SubmitTx(0, 41, 50, &a);
    auto tx = s.cc->CommitTx(0, 41, 60, &jd);
    // Before durable completion, the P-SQ window holds both requests.
    auto window = CcNvmeDriver::ScanUnfinished(s.ctrl->pmr(), 1, s.ctrl->config().queue_depth);
    ASSERT_EQ(window.size(), 2u);
    EXPECT_EQ(window[0].tx_id, 41u);
    EXPECT_EQ(window[0].slba, 50u);
    EXPECT_FALSE(window[0].is_commit);
    EXPECT_EQ(window[1].slba, 60u);
    EXPECT_TRUE(window[1].is_commit);

    s.cc->WaitDurable(tx);
    // After in-order completion advanced P-SQ-head, the window is empty.
    window = CcNvmeDriver::ScanUnfinished(s.ctrl->pmr(), 1, s.ctrl->config().queue_depth);
    EXPECT_TRUE(window.empty());
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(CcNvmeTest, ManyTransactionsWrapTheRing) {
  CcStack s;
  uint64_t completed = 0;
  s.sim->Spawn("app", [&] {
    Buffer data = MakeBlock(8);
    Buffer jd = MakeBlock(9);
    const int total = 3 * s.ctrl->config().queue_depth;  // force wraparound
    for (int i = 0; i < total; ++i) {
      s.cc->SubmitTx(0, static_cast<uint64_t>(i + 1), 10, &data);
      auto tx = s.cc->CommitTx(0, static_cast<uint64_t>(i + 1), 11, &jd);
      s.cc->WaitDurable(tx);
      completed++;
    }
  });
  s.sim->Run();
  EXPECT_EQ(completed, 3ull * s.ctrl->config().queue_depth);
  EXPECT_EQ(s.cc->transactions_completed(), completed);
  s.sim->Shutdown();
}

TEST(CcNvmeTest, MultiQueueTransactionsAreIndependent) {
  CcStack s(SsdConfig::Optane905P(), 4);
  int done = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    s.sim->Spawn("app" + std::to_string(q), [&, q] {
      Buffer data = MakeBlock(static_cast<uint8_t>(q));
      Buffer jd = MakeBlock(0xFF);
      for (int i = 0; i < 20; ++i) {
        const uint64_t tx_id = static_cast<uint64_t>(q) * 1000 + static_cast<uint64_t>(i);
        s.cc->SubmitTx(q, tx_id, q * 100ull, &data);
        auto tx = s.cc->CommitTx(q, tx_id, q * 100ull + 1, &jd);
        s.cc->WaitDurable(tx);
      }
      done++;
    });
  }
  s.sim->Run();
  EXPECT_EQ(done, 4);
  s.sim->Shutdown();
}

TEST(CcNvmeTest, VolatileCacheCommitIsDurableViaFlushBarrier) {
  CcStack s(SsdConfig::Intel750());
  s.sim->Spawn("app", [&] {
    Buffer a = MakeBlock(0x11);
    Buffer b = MakeBlock(0x22);
    Buffer jd = MakeBlock(0x33);
    s.cc->SubmitTx(0, 51, 70, &a);
    s.cc->SubmitTx(0, 51, 71, &b);
    auto tx = s.cc->CommitTx(0, 51, 72, &jd);
    s.cc->WaitDurable(tx);
    // All members must be durable (not just cached): the commit inserted a
    // flush barrier and wrote the commit record with FUA.
    Buffer out(kLbaSize);
    s.ssd->media().ReadDurable(70 * kLbaSize, out);
    EXPECT_EQ(out, a);
    s.ssd->media().ReadDurable(71 * kLbaSize, out);
    EXPECT_EQ(out, b);
    s.ssd->media().ReadDurable(72 * kLbaSize, out);
    EXPECT_EQ(out, jd);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(CcNvmeTest, CommitOnlyTransaction) {
  CcStack s;
  s.sim->Spawn("app", [&] {
    Buffer jd = MakeBlock(0x44);
    auto tx = s.cc->CommitTx(0, 61, 80, &jd);
    s.cc->WaitDurable(tx);
    Buffer out(kLbaSize);
    s.ssd->media().ReadDurable(80 * kLbaSize, out);
    EXPECT_EQ(out, jd);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(CcNvmeTest, PipelinedTransactionsKeepDeviceBusy) {
  // fatomic-style pipelining: commit many transactions without waiting,
  // then wait for the last. Throughput should far exceed the serial case.
  CcStack s;
  uint64_t pipelined_ns = 0;
  uint64_t serial_ns = 0;
  s.sim->Spawn("app", [&] {
    Buffer data = MakeBlock(1);
    const int kTx = 64;
    uint64_t start = s.sim->now();
    std::vector<CcNvmeDriver::TxHandle> txs;
    for (int i = 0; i < kTx; ++i) {
      txs.push_back(s.cc->CommitTx(0, static_cast<uint64_t>(i + 1), 10, &data));
    }
    for (auto& tx : txs) {
      s.cc->WaitDurable(tx);
    }
    pipelined_ns = s.sim->now() - start;

    start = s.sim->now();
    for (int i = 0; i < kTx; ++i) {
      auto tx = s.cc->CommitTx(0, static_cast<uint64_t>(1000 + i), 10, &data);
      s.cc->WaitDurable(tx);
    }
    serial_ns = s.sim->now() - start;
  });
  s.sim->Run();
  EXPECT_LT(pipelined_ns * 2, serial_ns);
  s.sim->Shutdown();
}

TEST(CcNvmeTest, TxAwareIrqCoalescingOneInterruptPerTransaction) {
  // §4.6: with controller-side coalescing, a transaction of N+1 requests
  // raises exactly ONE MSI-X, and still completes durably.
  CcStack s(SsdConfig::Optane905P(), 1, {}, /*tx_aware_irq=*/true);
  s.sim->Spawn("app", [&] {
    const int n = 4;
    std::vector<Buffer> blocks(n + 1, MakeBlock(6));
    const TrafficStats before = s.link->SnapshotTraffic();
    for (int i = 0; i < n; ++i) {
      s.cc->SubmitTx(0, 71, static_cast<uint64_t>(900 + i), &blocks[static_cast<size_t>(i)]);
    }
    auto tx = s.cc->CommitTx(0, 71, 950, &blocks[n]);
    s.cc->WaitDurable(tx);
    const TrafficStats d = s.link->SnapshotTraffic() - before;
    EXPECT_EQ(d.irqs, 1u) << "coalescing should deliver one IRQ per transaction";
    EXPECT_EQ(d.block_ios, static_cast<uint64_t>(n) + 1);
    // Verify the data really landed.
    Buffer out(kLbaSize);
    s.ssd->media().ReadDurable(950 * kLbaSize, out);
    EXPECT_EQ(out, blocks[0]);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(CcNvmeTest, ScanUnfinishedToleratesGarbagePmr) {
  // A PMR image from a different configuration (or random bytes) must not
  // hang or crash the window scan — the inspector tool feeds it arbitrary
  // images.
  Pmr pmr;
  Rng rng(123);
  for (size_t off = 0; off + 8 <= pmr.size(); off += 8) {
    uint8_t bytes[8];
    PutU64(std::span<uint8_t>(bytes, 8), 0, rng.Next());
    pmr.Write(off, std::span<const uint8_t>(bytes, 8));
  }
  const auto window = CcNvmeDriver::ScanUnfinished(pmr, 8, 256);
  // Any queue whose doorbells happen to be in range yields parsed entries;
  // the rest are skipped. Either way: terminates, bounded output.
  EXPECT_LE(window.size(), 8u * 256u);
}

TEST(BlockLayerTest, OrdinaryAndTxPathsCoexist) {
  CcStack s;
  NvmeDriverConfig drv_cfg;
  NvmeDriver drv(s.sim.get(), s.link.get(), s.ctrl.get(), drv_cfg);
  Volume vol(s.sim.get(), VolumeConfig{}, {Volume::Member{&drv, s.cc.get(), s.ssd.get()}});
  BlockLayer blk(s.sim.get(), &vol);
  s.sim->Spawn("app", [&] {
    blk.BindQueue(0);
    const Buffer plain = MakeBlock(0x55);
    ASSERT_TRUE(blk.WriteSync(5, plain).ok());
    Buffer data = MakeBlock(0x66);
    Buffer jd = MakeBlock(0x77);
    blk.SubmitTxWrite(71, 6, &data);
    auto tx = blk.CommitTx(71, 7, &jd);
    blk.WaitTxDurable(tx);
    Buffer out;
    ASSERT_TRUE(blk.ReadSync(6, 1, &out).ok());
    EXPECT_EQ(out, data);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(BlockLayerTest, RecorderSeesWritesAndFlushes) {
  CcStack s(SsdConfig::Intel750());
  NvmeDriverConfig drv_cfg;
  NvmeDriver drv(s.sim.get(), s.link.get(), s.ctrl.get(), drv_cfg);
  Volume vol(s.sim.get(), VolumeConfig{}, {Volume::Member{&drv, s.cc.get(), s.ssd.get()}});
  BlockLayer blk(s.sim.get(), &vol);
  std::vector<BioEvent> events;
  vol.set_recorder([&](const BioEvent& ev) { events.push_back(ev); });
  s.sim->Spawn("app", [&] {
    blk.BindQueue(0);
    const Buffer data = MakeBlock(0x12);
    ASSERT_TRUE(blk.WriteSync(9, data, kBioPreflush | kBioFua).ok());
  });
  s.sim->Run();
  // Submission events plus their completion records, recorded by the volume.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].op, BioOp::kFlush);
  EXPECT_EQ(events[1].op, BioOp::kComplete);  // flush completion
  EXPECT_EQ(events[1].seq, events[0].seq);
  EXPECT_EQ(events[2].op, BioOp::kWrite);
  EXPECT_EQ(events[2].lba, 9u);
  EXPECT_EQ(events[2].flags & kBioFua, kBioFua);
  EXPECT_EQ(events[3].op, BioOp::kComplete);  // write completion
  EXPECT_EQ(events[3].seq, events[2].seq);
  s.sim->Shutdown();
}

}  // namespace
}  // namespace ccnvme
