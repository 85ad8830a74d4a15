// Integration tests for the PCIe link + SSD + NVMe controller + host driver
// stack: command round trips, FUA/flush durability, parallelism, and traffic
// accounting.
#include <gtest/gtest.h>

#include "src/driver/nvme_driver.h"
#include "src/nvme/command.h"
#include "src/nvme/controller.h"
#include "src/pcie/pcie_link.h"
#include "src/pcie/wc_buffer.h"
#include "src/ssd/ssd_model.h"

namespace ccnvme {
namespace {

Buffer MakeBlock(uint8_t fill, size_t blocks = 1) {
  return Buffer(blocks * kLbaSize, fill);
}

struct Stack {
  explicit Stack(const SsdConfig& ssd_cfg = SsdConfig::Optane905P(), uint16_t num_queues = 1) {
    sim = std::make_unique<Simulator>();
    link = std::make_unique<PcieLink>(sim.get(), PcieConfig{});
    ssd = std::make_unique<SsdModel>(sim.get(), ssd_cfg);
    NvmeControllerConfig ctrl_cfg;
    ctrl_cfg.num_io_queues = num_queues;
    ctrl = std::make_unique<NvmeController>(sim.get(), link.get(), ssd.get(), ctrl_cfg);
    NvmeDriverConfig drv_cfg;
    drv_cfg.num_queues = num_queues;
    drv = std::make_unique<NvmeDriver>(sim.get(), link.get(), ctrl.get(), drv_cfg);
  }
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<PcieLink> link;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<NvmeController> ctrl;
  std::unique_ptr<NvmeDriver> drv;
};

TEST(NvmeCommandTest, SerializeParseRoundTrip) {
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kWrite);
  cmd.cid = 0x1234;
  cmd.nsid = 7;
  cmd.tx_id = 0xDEADBEEFCAFEF00Dull;
  cmd.slba = 0x123456789ull;
  cmd.set_num_blocks(8);
  cmd.cdw12 |= kCdw12ReqTx | kCdw12ReqTxCommit | kCdw12Fua;

  uint8_t raw[kSqeSize];
  cmd.Serialize(raw);
  const NvmeCommand back = NvmeCommand::Parse(raw);
  EXPECT_EQ(back.opcode, cmd.opcode);
  EXPECT_EQ(back.cid, cmd.cid);
  EXPECT_EQ(back.nsid, cmd.nsid);
  EXPECT_EQ(back.tx_id, cmd.tx_id);
  EXPECT_EQ(back.slba, cmd.slba);
  EXPECT_EQ(back.num_blocks(), 8u);
  EXPECT_TRUE(back.is_tx());
  EXPECT_TRUE(back.is_tx_commit());
  EXPECT_TRUE(back.fua());
}

TEST(NvmeCommandTest, TxFieldsUseReservedBitsOnly) {
  // A non-transactional command must parse with no tx attributes set —
  // compatibility with stock NVMe (Table 2).
  NvmeCommand cmd;
  cmd.opcode = static_cast<uint8_t>(NvmeOpcode::kWrite);
  cmd.set_num_blocks(1);
  uint8_t raw[kSqeSize];
  cmd.Serialize(raw);
  const NvmeCommand back = NvmeCommand::Parse(raw);
  EXPECT_FALSE(back.is_tx());
  EXPECT_FALSE(back.is_tx_commit());
  EXPECT_EQ(back.tx_id, 0u);
  EXPECT_EQ(back.num_blocks(), 1u);
}

TEST(NvmeCompletionTest, PhaseBitRoundTrip) {
  NvmeCompletion cqe;
  cqe.sq_head = 5;
  cqe.sq_id = 2;
  cqe.cid = 99;
  cqe.phase = true;
  cqe.status = 0;
  uint8_t raw[kCqeSize];
  cqe.Serialize(raw);
  const NvmeCompletion back = NvmeCompletion::Parse(raw);
  EXPECT_EQ(back.sq_head, 5);
  EXPECT_EQ(back.cid, 99);
  EXPECT_TRUE(back.phase);
  EXPECT_EQ(back.status, 0);
}

TEST(NvmeStackTest, WriteThenReadRoundTrip) {
  Stack s;
  bool ok = false;
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(0xAB);
    ASSERT_TRUE(s.drv->Write(0, 100, data, /*fua=*/false).ok());
    Buffer out;
    ASSERT_TRUE(s.drv->Read(0, 100, 1, &out).ok());
    EXPECT_EQ(out, data);
    ok = true;
  });
  s.sim->Run();
  EXPECT_TRUE(ok);
  s.sim->Shutdown();
}

TEST(NvmeStackTest, WriteLatencyIsMicrosecondScale) {
  Stack s(SsdConfig::Optane905P());
  uint64_t latency = 0;
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(1);
    const uint64_t start = s.sim->now();
    ASSERT_TRUE(s.drv->Write(0, 0, data, false).ok());
    latency = s.sim->now() - start;
  });
  s.sim->Run();
  // Table 3: ~10 us device + host path. Accept a generous envelope.
  EXPECT_GT(latency, 8'000u);
  EXPECT_LT(latency, 25'000u);
  s.sim->Shutdown();
}

TEST(NvmeStackTest, ConcurrentWritesOverlap) {
  Stack s(SsdConfig::Optane905P());
  uint64_t serial_estimate = 0;
  uint64_t elapsed = 0;
  s.sim->Spawn("app", [&] {
    const uint64_t start = s.sim->now();
    // First measure one write.
    const Buffer data = MakeBlock(7);
    ASSERT_TRUE(s.drv->Write(0, 0, data, false).ok());
    const uint64_t one = s.sim->now() - start;
    serial_estimate = one * 8;

    // Now issue 8 concurrently.
    const uint64_t batch_start = s.sim->now();
    std::vector<NvmeDriver::RequestHandle> reqs;
    std::vector<Buffer> bufs(8, MakeBlock(9));
    for (int i = 0; i < 8; ++i) {
      reqs.push_back(s.drv->SubmitWrite(0, 10 + static_cast<uint64_t>(i), &bufs[static_cast<size_t>(i)], false));
    }
    for (auto& r : reqs) {
      ASSERT_TRUE(s.drv->Wait(r).ok());
    }
    elapsed = s.sim->now() - batch_start;
  });
  s.sim->Run();
  EXPECT_LT(elapsed, serial_estimate / 2) << "device parallelism not exploited";
  s.sim->Shutdown();
}

TEST(NvmeStackTest, PerRequestTrafficCounts) {
  Stack s;
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(3);
    const TrafficStats before = s.link->SnapshotTraffic();
    ASSERT_TRUE(s.drv->Write(0, 5, data, false).ok());
    const TrafficStats d = s.link->SnapshotTraffic() - before;
    // Figure 1: >= 2 MMIOs (SQDB+CQDB), 2 queue DMAs (SQE fetch + CQE post),
    // 1 block I/O, 1 IRQ per request.
    EXPECT_EQ(d.mmio_writes, 2u);
    EXPECT_EQ(d.dma_queue_ops, 2u);
    EXPECT_EQ(d.block_ios, 1u);
    EXPECT_EQ(d.irqs, 1u);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(NvmeStackTest, VolatileCacheWritesAreNotDurableUntilFlush) {
  Stack s(SsdConfig::Intel750());
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(0x55);
    ASSERT_TRUE(s.drv->Write(0, 42, data, /*fua=*/false).ok());
    Buffer durable(kLbaSize);
    s.ssd->media().ReadDurable(42 * kLbaSize, durable);
    EXPECT_NE(durable, data) << "non-FUA write must not be durable pre-flush";
    ASSERT_TRUE(s.drv->Flush(0).ok());
    s.ssd->media().ReadDurable(42 * kLbaSize, durable);
    EXPECT_EQ(durable, data);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(NvmeStackTest, FuaWriteIsImmediatelyDurable) {
  Stack s(SsdConfig::Intel750());
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(0x66);
    ASSERT_TRUE(s.drv->Write(0, 43, data, /*fua=*/true).ok());
    Buffer durable(kLbaSize);
    s.ssd->media().ReadDurable(43 * kLbaSize, durable);
    EXPECT_EQ(durable, data);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(NvmeStackTest, PlpDriveWritesAreDurableOnCompletion) {
  Stack s(SsdConfig::Optane905P());
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(0x77);
    ASSERT_TRUE(s.drv->Write(0, 44, data, /*fua=*/false).ok());
    Buffer durable(kLbaSize);
    s.ssd->media().ReadDurable(44 * kLbaSize, durable);
    EXPECT_EQ(durable, data);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(NvmeStackTest, MultiQueueIsIndependent) {
  Stack s(SsdConfig::Optane905P(), /*num_queues=*/4);
  int completed = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    s.sim->Spawn("app" + std::to_string(q), [&, q] {
      const Buffer data = MakeBlock(static_cast<uint8_t>(q));
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(s.drv->Write(q, q * 100 + static_cast<uint64_t>(i), data, false).ok());
      }
      completed++;
    });
  }
  s.sim->Run();
  EXPECT_EQ(completed, 4);
  s.sim->Shutdown();
}

TEST(NvmeStackTest, MultiBlockWrite) {
  Stack s;
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(0x88, 8);  // 32 KB
    ASSERT_TRUE(s.drv->Write(0, 200, data, false).ok());
    Buffer out;
    ASSERT_TRUE(s.drv->Read(0, 200, 8, &out).ok());
    EXPECT_EQ(out, data);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(NvmeStackTest, QueueBackpressureDoesNotDeadlock) {
  Stack s;
  // More in-flight requests than the SQ depth: submissions must block and
  // then drain.
  int done = 0;
  s.sim->Spawn("app", [&] {
    std::vector<NvmeDriver::RequestHandle> reqs;
    std::vector<Buffer> bufs(600, MakeBlock(1));
    for (int i = 0; i < 600; ++i) {
      reqs.push_back(s.drv->SubmitWrite(0, static_cast<uint64_t>(i), &bufs[static_cast<size_t>(i)], false));
    }
    for (auto& r : reqs) {
      ASSERT_TRUE(s.drv->Wait(r).ok());
      done++;
    }
  });
  s.sim->Run();
  EXPECT_EQ(done, 600);
  s.sim->Shutdown();
}

// A completed request holds nothing its callback captured. Callers keep
// request handles in state that their callbacks capture (the volume's
// per-write fan-out), so a kept callback would make each such write a
// shared_ptr cycle that is never freed.
TEST(NvmeStackTest, CompletionCallbackIsReleasedOnceItRuns) {
  Stack s;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  int calls = 0;
  s.sim->Spawn("app", [&] {
    const Buffer data = MakeBlock(0x5C);
    auto req = s.drv->SubmitWrite(0, 7, &data, /*fua=*/false, 0, 0,
                                  [&calls, token = std::move(token)] { ++calls; });
    ASSERT_TRUE(s.drv->Wait(req).ok());
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(watch.expired()) << "the completed request still owns its callback";
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(PmrTest, PersistsAndReadsBack) {
  Pmr pmr(1024);
  Buffer data = {1, 2, 3, 4};
  pmr.Write(100, data);
  Buffer out(4);
  pmr.Read(100, out);
  EXPECT_EQ(out, data);
  pmr.WriteU32(200, 0xABCD1234);
  EXPECT_EQ(pmr.ReadU32(200), 0xABCD1234u);
}

// The region is a sparse page table: nothing is held until the first
// store, and a read of a page never stored to returns zeros without
// allocating it. A copy of the pages keeps its bytes when the region
// stores to a page they share.
TEST(PmrTest, FreshRegionHoldsNoPagesUntilItsFirstStore) {
  Pmr pmr;
  EXPECT_EQ(pmr.image().pages_held(), 0u);
  Buffer out(64, 0xFF);
  pmr.Read(pmr.size() - out.size(), out);
  EXPECT_EQ(out, Buffer(64, 0));
  EXPECT_EQ(pmr.image().pages_held(), 0u);
  pmr.WriteU32(1024 * 1024 + 8, 7);
  EXPECT_EQ(pmr.image().pages_held(), 1u);
  const PageImage captured = pmr.image();
  pmr.WriteU32(1024 * 1024 + 8, 9);
  EXPECT_EQ(pmr.ReadU32(1024 * 1024 + 8), 9u);
  EXPECT_EQ(Pmr(captured).ReadU32(1024 * 1024 + 8), 7u);
}

TEST(WcBufferTest, StoresCoalesceIntoOneMmio) {
  Simulator sim;
  PcieLink link(&sim, PcieConfig{});
  WcBuffer wc(&link);
  sim.Spawn("app", [&] {
    for (int i = 0; i < 10; ++i) {
      wc.Store(64);
    }
    EXPECT_EQ(wc.pending_bytes(), 640u);
    wc.FlushPersistent();
    EXPECT_EQ(wc.pending_bytes(), 0u);
  });
  sim.Run();
  EXPECT_EQ(link.traffic().mmio_writes, 1u);
  EXPECT_EQ(link.traffic().mmio_reads, 1u);
  EXPECT_EQ(link.traffic().mmio_write_bytes, 640u);
}

TEST(WcBufferTest, PersistentFlushCostsMoreThanNonPersistent) {
  Simulator sim;
  PcieLink link(&sim, PcieConfig{});
  WcBuffer wc(&link);
  uint64_t nonpersistent = 0;
  uint64_t persistent = 0;
  sim.Spawn("app", [&] {
    uint64_t t0 = sim.now();
    wc.Store(64);
    wc.FlushNonPersistent();
    nonpersistent = sim.now() - t0;
    t0 = sim.now();
    wc.Store(64);
    wc.FlushPersistent();
    persistent = sim.now() - t0;
  });
  sim.Run();
  // Figure 5: 64 B write+sync is ~2.5x a plain write.
  EXPECT_GT(persistent, nonpersistent * 2);
  EXPECT_LT(persistent, nonpersistent * 6);
}

TEST(SsdModelTest, ThroughputMatchesTable3) {
  // Drive the 905P with enough parallelism to saturate 4 KB random writes;
  // expect roughly 550K IOPS (Table 3).
  Stack s(SsdConfig::Optane905P(), /*num_queues=*/4);
  uint64_t completed = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    s.sim->Spawn("load" + std::to_string(q), [&, q] {
      Buffer data = MakeBlock(1);
      std::vector<NvmeDriver::RequestHandle> window;
      for (;;) {
        window.push_back(s.drv->SubmitWrite(q, (completed * 7919 + q) % 1000000, &data, false));
        if (window.size() >= 32) {
          for (auto& r : window) {
            (void)s.drv->Wait(r);
            completed++;
          }
          window.clear();
        }
      }
    });
  }
  s.sim->RunFor(20'000'000);  // 20 ms simulated
  const double iops = static_cast<double>(completed) / 20e-3;
  EXPECT_GT(iops, 350'000.0);
  EXPECT_LT(iops, 700'000.0);
  s.sim->Shutdown();
}

}  // namespace
}  // namespace ccnvme
