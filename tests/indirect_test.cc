// Tests for the indirect (dual-SSD) implementation of Figure 9(b): same
// semantics as the ideal driver, duplicated MMIOs, and the paper's claim
// that the indirect setup is a performance lower bound on the ideal one.
#include <gtest/gtest.h>

#include "src/ccnvme/indirect.h"
#include "src/harness/stack.h"

namespace ccnvme {
namespace {

struct IndirectStack {
  IndirectStack() {
    sim = std::make_unique<Simulator>();
    // Test SSD with its own link.
    link = std::make_unique<PcieLink>(sim.get(), PcieConfig{});
    ssd = std::make_unique<SsdModel>(sim.get(), SsdConfig::Optane905P());
    ctrl = std::make_unique<NvmeController>(sim.get(), link.get(), ssd.get(),
                                            NvmeControllerConfig{});
    nvme = std::make_unique<NvmeDriver>(sim.get(), link.get(), ctrl.get(),
                                        NvmeDriverConfig{});
    // The wrapping PMR SSD: a second link + persistent region.
    pmr_link = std::make_unique<PcieLink>(sim.get(), PcieConfig{});
    pmr = std::make_unique<Pmr>();
    indirect = std::make_unique<IndirectCcNvme>(sim.get(), pmr_link.get(), pmr.get(),
                                                nvme.get(), 1);
  }
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<PcieLink> link;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<NvmeController> ctrl;
  std::unique_ptr<NvmeDriver> nvme;
  std::unique_ptr<PcieLink> pmr_link;
  std::unique_ptr<Pmr> pmr;
  std::unique_ptr<IndirectCcNvme> indirect;
};

TEST(IndirectTest, TransactionReachesTestSsd) {
  IndirectStack s;
  s.sim->Spawn("app", [&] {
    Buffer a(kLbaSize, 0xA5);
    Buffer jd(kLbaSize, 0x5A);
    s.indirect->SubmitTx(0, 1, 10, &a);
    auto tx = s.indirect->CommitTx(0, 1, 11, &jd);
    s.indirect->WaitDurable(tx);
    Buffer out(kLbaSize);
    s.ssd->media().ReadDurable(10 * kLbaSize, out);
    EXPECT_EQ(out, a);
    s.ssd->media().ReadDurable(11 * kLbaSize, out);
    EXPECT_EQ(out, jd);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(IndirectTest, MmiosAreDuplicatedAcrossBothDevices) {
  IndirectStack s;
  s.sim->Spawn("app", [&] {
    Buffer a(kLbaSize, 1);
    Buffer jd(kLbaSize, 2);
    const TrafficStats pmr_before = s.pmr_link->SnapshotTraffic();
    const TrafficStats test_before = s.link->SnapshotTraffic();
    s.indirect->SubmitTx(0, 1, 20, &a);
    auto tx = s.indirect->CommitTx(0, 1, 21, &jd);
    s.indirect->WaitDurable(tx);
    const TrafficStats pmr_d = s.pmr_link->SnapshotTraffic() - pmr_before;
    const TrafficStats test_d = s.link->SnapshotTraffic() - test_before;
    // PMR SSD: the ccNVMe MMIO set (burst + P-SQDB + P-SQ-head), no data.
    EXPECT_GE(pmr_d.mmio_writes, 3u);
    EXPECT_EQ(pmr_d.block_ios, 0u);
    // Test SSD: its own driver MMIOs plus the block I/O and IRQs.
    EXPECT_GE(test_d.mmio_writes, 2u);
    EXPECT_EQ(test_d.block_ios, 2u);
    EXPECT_EQ(test_d.irqs, 2u);
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(IndirectTest, PersistentWindowTracksUnfinishedTx) {
  IndirectStack s;
  s.sim->Spawn("app", [&] {
    Buffer a(kLbaSize, 3);
    Buffer jd(kLbaSize, 4);
    s.indirect->SubmitTx(0, 5, 30, &a);
    auto tx = s.indirect->CommitTx(0, 5, 31, &jd);
    auto window = CcNvmeDriver::ScanUnfinished(*s.pmr, 1, 256);
    EXPECT_EQ(window.size(), 2u) << "committed-but-incomplete tx must be in the window";
    s.indirect->WaitDurable(tx);
    window = CcNvmeDriver::ScanUnfinished(*s.pmr, 1, 256);
    EXPECT_TRUE(window.empty());
  });
  s.sim->Run();
  s.sim->Shutdown();
}

TEST(IndirectTest, IndirectIsLowerBoundOnIdeal) {
  // §6: "the evaluation atop our implementation can reflect the least
  // performance ... of the ideal implementation".
  auto run_ideal = [] {
    StorageStack stack(StackConfig{});
    uint64_t total = 0;
    stack.Run([&] {
      Buffer a(kLbaSize, 1);
      Buffer jd(kLbaSize, 2);
      for (int i = 0; i < 50; ++i) {
        const uint64_t t0 = stack.sim().now();
        stack.ccnvme()->SubmitTx(0, static_cast<uint64_t>(i + 1), 40, &a);
        auto tx = stack.ccnvme()->CommitTx(0, static_cast<uint64_t>(i + 1), 41, &jd);
        stack.ccnvme()->WaitDurable(tx);
        total += stack.sim().now() - t0;
      }
    });
    return total / 50;
  };
  auto run_indirect = [] {
    IndirectStack s;
    uint64_t total = 0;
    s.sim->Spawn("app", [&] {
      Buffer a(kLbaSize, 1);
      Buffer jd(kLbaSize, 2);
      for (int i = 0; i < 50; ++i) {
        const uint64_t t0 = s.sim->now();
        s.indirect->SubmitTx(0, static_cast<uint64_t>(i + 1), 40, &a);
        auto tx = s.indirect->CommitTx(0, static_cast<uint64_t>(i + 1), 41, &jd);
        s.indirect->WaitDurable(tx);
        total += s.sim->now() - t0;
      }
    });
    s.sim->Run();
    s.sim->Shutdown();
    return total / 50;
  };
  const uint64_t ideal_ns = run_ideal();
  const uint64_t indirect_ns = run_indirect();
  EXPECT_GE(indirect_ns, ideal_ns) << "indirect must not beat the ideal design";
  EXPECT_LT(indirect_ns, ideal_ns * 2) << "but it should be in the same ballpark";
}

}  // namespace
}  // namespace ccnvme
