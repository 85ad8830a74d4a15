// Crash-recovery demo: drives the ccNVMe driver directly (no file system)
// to show the P-SQ life-cycle tracking that makes recovery possible:
//   1. commit a transaction and let it complete — the persistent window is
//      empty, everything before P-SQ-head is stable;
//   2. commit a transaction and "crash" before the device drains it — the
//      window [P-SQ-head, P-SQDB) names exactly the unfinished requests a
//      recovery pass must validate or discard.
//
//   $ ./crash_recovery_demo
#include <cstdio>

#include "src/harness/stack.h"

using namespace ccnvme;

namespace {

void PrintWindow(const Pmr& pmr, uint16_t queues, uint16_t depth) {
  const auto window = CcNvmeDriver::ScanUnfinished(pmr, queues, depth);
  if (window.empty()) {
    std::printf("  P-SQ window: empty (all transactions completed in order)\n");
    return;
  }
  std::printf("  P-SQ window: %zu unfinished request(s)\n", window.size());
  for (const auto& req : window) {
    std::printf("    q%u tx=%llu lba=%llu blocks=%u%s\n", req.qid,
                static_cast<unsigned long long>(req.tx_id),
                static_cast<unsigned long long>(req.slba), req.num_blocks,
                req.is_commit ? "  [REQ_TX_COMMIT]" : "");
  }
}

}  // namespace

int main() {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  StorageStack stack(cfg);
  const uint16_t depth = stack.controller().config().queue_depth;

  std::printf("=== 1. A transaction that completes durably ===\n");
  stack.Run([&] {
    Buffer a(kLbaSize, 0xA1);
    Buffer jd(kLbaSize, 0x1D);
    stack.ccnvme()->SubmitTx(0, /*tx_id=*/1, /*slba=*/100, &a);
    auto tx = stack.ccnvme()->CommitTx(0, 1, 101, &jd);
    std::printf("  committed tx 1 (atomic at %.1f us)\n", tx->atomic_at_ns / 1e3);
    stack.ccnvme()->WaitDurable(tx);
    std::printf("  durable at %.1f us\n", tx->durable_at_ns / 1e3);
  });
  PrintWindow(stack.controller().pmr(), 1, depth);

  std::printf("\n=== 2. A transaction interrupted by a power cut ===\n");
  Buffer b(kLbaSize, 0xB2);
  Buffer c(kLbaSize, 0xC3);
  Buffer jd2(kLbaSize, 0x2D);
  CcNvmeDriver::TxHandle pending;
  stack.Spawn("victim", [&] {
    stack.ccnvme()->SubmitTx(0, 2, 200, &b);
    stack.ccnvme()->SubmitTx(0, 2, 201, &c);
    pending = stack.ccnvme()->CommitTx(0, 2, 202, &jd2);
    std::printf("  committed tx 2 — atomicity guaranteed, durability in flight\n");
  });
  // Run just far enough for the doorbell, not for the device to finish.
  stack.sim().RunFor(3'000);
  std::printf("  power cut at t=%.1f us!\n", stack.sim().now() / 1e3);
  const CrashImage image = stack.CaptureCrashImage();

  // The PMR survives the crash; a recovery pass reads the window from it.
  const Pmr recovered_pmr(image.pmr());
  PrintWindow(recovered_pmr, 1, depth);
  std::printf("\n  Recovery policy (ccNVMe -> upper layer): transactions in the\n");
  std::printf("  window are replayed only if their journal content validates\n");
  std::printf("  (MQFS uses per-block checksums in the descriptor); otherwise\n");
  std::printf("  they are discarded — all-or-nothing.\n");

  // Drain the in-flight transaction so teardown is clean.
  stack.sim().Run();
  return 0;
}
