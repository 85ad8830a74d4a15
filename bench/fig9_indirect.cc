// Figure 9 (implementation comparison, §6): the ideal single-device ccNVMe
// (the P-SQ lives in the test SSD's own PMR) vs. the paper's indirect
// evaluation setup (a PMR SSD wraps the test SSD; MMIOs are duplicated).
// The indirect numbers lower-bound the ideal ones — which is what justifies
// the paper evaluating on the indirect implementation.
#include "bench/bench_runner.h"
#include "src/ccnvme/indirect.h"
#include "src/harness/stack.h"

namespace ccnvme {
namespace {

double IdealKTps(BenchContext& ctx, int n) {
  StackConfig cfg;
  ctx.ApplyInjections(&cfg);
  StorageStack stack(cfg);
  uint64_t ops = 0;
  const uint64_t dur = 8'000'000;
  stack.Run([&] {
    std::vector<Buffer> bufs(static_cast<size_t>(n) + 1, Buffer(kLbaSize, 1));
    uint64_t id = 1;
    const uint64_t end = stack.sim().now() + dur;
    while (stack.sim().now() < end) {
      for (int i = 0; i < n; ++i) {
        stack.ccnvme()->SubmitTx(0, id, static_cast<uint64_t>(100 + i), &bufs[static_cast<size_t>(i)]);
      }
      auto tx = stack.ccnvme()->CommitTx(0, id, 200, &bufs[static_cast<size_t>(n)]);
      stack.ccnvme()->WaitDurable(tx);
      id++;
      ops++;
    }
  });
  return static_cast<double>(ops) / (dur / 1e9) / 1e3;
}

double IndirectKTps(int n) {
  Simulator sim;
  PcieLink link(&sim, PcieConfig{});
  SsdModel ssd(&sim, SsdConfig::Optane905P());
  NvmeController ctrl(&sim, &link, &ssd, NvmeControllerConfig{});
  NvmeDriver nvme(&sim, &link, &ctrl, NvmeDriverConfig{});
  PcieLink pmr_link(&sim, PcieConfig{});
  Pmr pmr;
  IndirectCcNvme indirect(&sim, &pmr_link, &pmr, &nvme, 1);
  uint64_t ops = 0;
  const uint64_t dur = 8'000'000;
  sim.Spawn("app", [&] {
    std::vector<Buffer> bufs(static_cast<size_t>(n) + 1, Buffer(kLbaSize, 1));
    uint64_t id = 1;
    const uint64_t end = sim.now() + dur;
    while (sim.now() < end) {
      for (int i = 0; i < n; ++i) {
        indirect.SubmitTx(0, id, static_cast<uint64_t>(100 + i), &bufs[static_cast<size_t>(i)]);
      }
      auto tx = indirect.CommitTx(0, id, 200, &bufs[static_cast<size_t>(n)]);
      indirect.WaitDurable(tx);
      id++;
      ops++;
    }
  });
  sim.Run();
  sim.Shutdown();
  return static_cast<double>(ops) / (dur / 1e9) / 1e3;
}

void RunFig9(BenchContext& ctx) {
  ctx.Log("Figure 9 (§6): ideal vs. indirect ccNVMe implementation, 905P, 1 thread\n\n");
  ctx.Log("%12s | %10s %12s %8s\n", "tx blocks", "ideal kTPS", "indirect kTPS", "ratio");
  for (int n : {1, 4, 8}) {
    const double ideal = IdealKTps(ctx, n);
    const double indirect = IndirectKTps(n);
    ctx.Log("%12d | %10.1f %12.1f %7.2fx\n", n + 1, ideal, indirect, ideal / indirect);
    if (n == 4) {
      ctx.Metric("ideal_ktps_5blk", ideal);
      ctx.Metric("indirect_ktps_5blk", indirect);
    }
  }
  ctx.Log("\nindirect <= ideal everywhere: evaluating on the indirect setup (as the\n");
  ctx.Log("paper does) under-reports, never over-reports, ccNVMe's benefit.\n");
}

CCNVME_REGISTER_BENCH("fig9_indirect", "ideal vs indirect ccNVMe implementation",
                      RunFig9);

}  // namespace
}  // namespace ccnvme
