// CrashMonkey-style bounded black-box crash testing (§7.6, Table 4).
//
// Methodology (after Mohan et al., OSDI'18):
//   1. Run a workload against a fresh file system while recording the
//      block-level stream: write submissions (with payloads), flushes,
//      completions, and the ccNVMe driver's PMR traffic. The workload also
//      registers *oracle facts* — assertions that become guaranteed the
//      moment an fsync/fatomic returns ("file X exists with content H").
//   2. For each crash point, reconstruct a device state a power cut at
//      that moment could leave behind (src/crashtest/crash_state.h):
//      durable writes are present, doorbell-gated transactional writes and
//      in-flight requests persist as a random choice per item — absent,
//      present, or torn at sector/MMIO-word granularity.
//   3. Boot a fresh stack from that state, mount (running journal
//      recovery), run the file-system consistency checker, and verify
//      every oracle fact registered before the crash point.
//
// CrashMonkey samples random crash states; its systematic sibling
// (src/crashtest/crash_explorer.h) enumerates them.
#ifndef SRC_CRASHTEST_CRASH_MONKEY_H_
#define SRC_CRASHTEST_CRASH_MONKEY_H_

#include <string>
#include <vector>

#include "src/crashtest/crash_state.h"

namespace ccnvme {

struct CrashTestReport {
  int crash_points = 0;
  int passed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  bool AllPassed() const { return passed == crash_points; }
};

class CrashMonkey {
 public:
  explicit CrashMonkey(const StackConfig& config, uint64_t seed = 1234)
      : config_(config), seed_(seed), rng_(seed) {}

  // Records the workload once, then tests |num_crash_points| random crash
  // states (random crash index, random choice per uncertain item).
  CrashTestReport Run(const CrashWorkload& workload, int num_crash_points);

  // --- The paper's four workloads (Table 4) ------------------------------
  static CrashWorkload CreateDelete();
  static CrashWorkload Generic035();  // rename() overwrite (xfstest 035)
  static CrashWorkload Generic106();  // link()/unlink() (xfstest 106)
  static CrashWorkload Generic321();  // directory fsync (xfstest 321)

  // --- Additional workloads beyond the paper -----------------------------
  static CrashWorkload TruncateShrinkGrow();  // truncate + block reuse
  static CrashWorkload OverwriteMixed();      // in-place overwrites + appends
  // fatomic multi-block overwrite: registers a ContentOneOf fact, so every
  // crash state must show the old content or the new one, never a mix.
  // Requires a data-journaling MQFS config for true data atomicity.
  static CrashWorkload AtomicOverwrite();

  // --- NVLog (NVM write-ahead log) workloads ------------------------------
  // Appends + fsyncs over the NVLog stack: every fsync's durability point is
  // an NVM flush+fence, and crash cuts land inside the absorb-then-drain
  // window — after the fence (fact armed, entry undrained) but before or in
  // the middle of the background checkpoint to the block stack.
  static CrashWorkload NvlogAppends();
  // Repeated in-place overwrites of one block region, fsynced each round:
  // several log entries covering the SAME home block queue up undrained, so
  // drain-batch coalescing and in-order replay decide which content wins.
  static CrashWorkload NvlogOverwriteChurn();

  // --- KV-native (KV-SSD) workloads ---------------------------------------
  // Keys stored, one overwritten, one deleted through the NVMe KV command
  // set (config.kv.enabled stacks). Before each Store/Delete returns the
  // key's fact is a KvOneOf(old, new) — the device-side map+data commit
  // window the explorer cuts through; after the ack the exact value is
  // guaranteed (completion = durability, no host flush).
  static CrashWorkload KvPutGet();
  // One key overwritten repeatedly with multi-page values: every round
  // frees the previous flash run, so small-geometry configs run GC
  // mid-stream and crash cuts land inside migrate/checkpoint/erase.
  static CrashWorkload KvOverwriteChurn();
  // Two cores, on queues 0 and 1 (the stack needs two), each overwrite one
  // key 12 times with two-page values; both keys have the same home slot,
  // so the cores insert into and probe along one chain. The device runs the
  // cores' page programs unlocked, so their Stores overlap, and on a small
  // geometry GC runs mid-stream.
  static CrashWorkload KvConcurrentChurn();
  // Two cores, on queues 0 and 1, overwrite and delete sub-page values of
  // several sizes on three keys each, after storing one cold value that is
  // never overwritten. The values are packed into the device's two staging
  // frames, so the stream seals, flushes and reopens both; on a small
  // geometry GC migrates the cold values' page, and the last values stay
  // staged.
  static CrashWorkload KvPackedChurn();

  // --- Multi-core workloads ----------------------------------------------
  // Two cores append+fsync their own files concurrently (SpawnOnCore), so
  // the recorded stream interleaves both queues' traffic and crash cuts
  // land between one core's commit and the other's in-flight writes.
  static CrashWorkload MultiCoreAppends();
  // The same, with both actors on core 0: their fsyncs share one hardware
  // queue, so two MQFS transactions are in flight on one P-SQ and two NVLog
  // appenders overlap one's copy with the other's persist barrier.
  static CrashWorkload SameCoreAppends();
  // Two cores overwrite disjoint regions of ONE shared file and fsync it
  // concurrently: cross-core group commit (leader/follower aggregation).
  // Each core arms a FileRegion fact the moment its own fsync returns —
  // exactly the guarantee the test_skip_cross_core_order bug breaks.
  static CrashWorkload MultiCoreSharedFsync();

 private:
  StackConfig config_;
  uint64_t seed_;
  Rng rng_;
};

}  // namespace ccnvme

#endif  // SRC_CRASHTEST_CRASH_MONKEY_H_
