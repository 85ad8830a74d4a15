// Device-scaling study for the multi-device volume layer (src/volume).
//
// Measures, for 1 -> 4 member devices:
//   (a) 4KB random-write throughput at fixed queue depth, raw volume I/O
//       (stripe: aggregate bandwidth should scale near-linearly with
//       members; mirror: write amplification keeps it at one device's
//       bandwidth while adding redundancy), and
//   (b) fsync throughput through a mounted MQFS, where the journal streams
//       spread across the members.
//
// Usage: volume_scaling [--seed N]
#include "bench/bench_runner.h"
#include "src/common/rng.h"
#include "src/harness/stack.h"

namespace ccnvme {
namespace {

constexpr uint64_t kAddressBlocks = 64 * 1024;  // 256 MB working set
constexpr uint32_t kQueueDepth = 16;            // per worker
constexpr int kWorkers = 4;

StackConfig VolumeStack(BenchContext& ctx, uint16_t devices, VolumeKind kind) {
  StackConfig cfg;
  ctx.ApplyInjections(&cfg);
  cfg.num_queues = kWorkers;
  cfg.num_devices = devices;
  cfg.volume.kind = kind;
  cfg.volume.chunk_blocks = 1;  // spread even adjacent blocks across members
  return cfg;
}

// 4KB random writes, |kWorkers| submitters, queue depth kQueueDepth each.
// Returns MB/s of completed writes over |duration_ns| simulated time.
double RandomWriteMbps(BenchContext& ctx, uint16_t devices, VolumeKind kind,
                       uint64_t duration_ns, uint64_t seed) {
  StorageStack stack(VolumeStack(ctx, devices, kind));
  uint64_t completed = 0;
  for (int w = 0; w < kWorkers; ++w) {
    const uint16_t qid = static_cast<uint16_t>(w);
    stack.Spawn("wr" + std::to_string(w), [&, qid, w] {
      Rng rng(seed + static_cast<uint64_t>(w));
      const Buffer data(kLbaSize, static_cast<uint8_t>(0xA0 + w));
      std::vector<NvmeDriver::RequestHandle> window;
      const uint64_t end_ns = duration_ns;
      while (stack.sim().now() < end_ns) {
        const uint64_t lba = rng.Uniform(kAddressBlocks);
        window.push_back(stack.volume()->SubmitWrite(qid, lba, &data, 0));
        if (window.size() >= kQueueDepth) {
          window.front()->done.Wait();
          window.erase(window.begin());
          ++completed;
        }
      }
      for (auto& h : window) {
        h->done.Wait();
        ++completed;
      }
    }, qid);
  }
  stack.sim().Run();
  const double secs = static_cast<double>(stack.sim().now()) / 1e9;
  return secs == 0 ? 0.0 : static_cast<double>(completed) * kLbaSize / 1e6 / secs;
}

// Append + fsync loops through a mounted MQFS on the volume. Returns K
// fsyncs per second.
double FsyncKops(BenchContext& ctx, uint16_t devices, VolumeKind kind,
                 uint64_t duration_ns, uint64_t seed) {
  StackConfig cfg = VolumeStack(ctx, devices, kind);
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = kWorkers;
  cfg.fs.journal_blocks = 4096;
  StorageStack stack(cfg);
  CCNVME_CHECK(stack.MkfsAndMount().ok());
  uint64_t fsyncs = 0;
  for (int w = 0; w < kWorkers; ++w) {
    const uint16_t qid = static_cast<uint16_t>(w);
    stack.Spawn("fs" + std::to_string(w), [&, qid, w] {
      auto ino = stack.fs().Create("/f" + std::to_string(w));
      CCNVME_CHECK(ino.ok());
      Rng rng(seed + 100 + static_cast<uint64_t>(w));
      Buffer data(kFsBlockSize);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      uint64_t off = 0;
      while (stack.sim().now() < duration_ns) {
        CCNVME_CHECK(stack.fs().Write(*ino, off, data).ok());
        CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
        off += kFsBlockSize;
        ++fsyncs;
      }
    }, qid);
  }
  stack.sim().Run();
  const double secs = static_cast<double>(stack.sim().now()) / 1e9;
  return secs == 0 ? 0.0 : static_cast<double>(fsyncs) / 1e3 / secs;
}

void RunVolumeScaling(BenchContext& ctx) {
  const uint64_t seed = ctx.seed();
  const uint64_t kWriteDuration = 4'000'000;  // 4 ms simulated per point
  const uint64_t kFsyncDuration = 8'000'000;

  ctx.Log("Volume device scaling (4 workers, QD %u, seed %llu)\n\n", kQueueDepth,
              static_cast<unsigned long long>(seed));
  ctx.Log("%-8s %-8s %16s %12s\n", "devices", "kind", "randwrite_MB/s", "fsync_K/s");

  const double base = RandomWriteMbps(ctx, 1, VolumeKind::kStripe, kWriteDuration, seed);
  ctx.Log("%-8u %-8s %16.0f %12.1f\n", 1, "single", base,
              FsyncKops(ctx, 1, VolumeKind::kStripe, kFsyncDuration, seed));

  for (uint16_t n : {2, 4}) {
    const double mbps = RandomWriteMbps(ctx, n, VolumeKind::kStripe, kWriteDuration, seed);
    const double kops = FsyncKops(ctx, n, VolumeKind::kStripe, kFsyncDuration, seed);
    ctx.Log("%-8u %-8s %16.0f %12.1f   (%.2fx single)\n", n, "stripe", mbps, kops,
            base == 0 ? 0.0 : mbps / base);
    if (n == 4) {
      ctx.Metric("stripe4_randwrite_mbps", mbps);
      ctx.Metric("stripe4_fsync_kops", kops);
    }
  }
  for (uint16_t n : {2, 4}) {
    const double mbps = RandomWriteMbps(ctx, n, VolumeKind::kMirror, kWriteDuration, seed);
    const double kops = FsyncKops(ctx, n, VolumeKind::kMirror, kFsyncDuration, seed);
    ctx.Log("%-8u %-8s %16.0f %12.1f   (%.2fx single)\n", n, "mirror", mbps, kops,
            base == 0 ? 0.0 : mbps / base);
    if (n == 2) {
      ctx.Metric("mirror2_randwrite_mbps", mbps);
    }
  }
  ctx.Metric("single_randwrite_mbps", base);
}

CCNVME_REGISTER_BENCH("volume_scaling",
                      "multi-device volume throughput scaling (stripe/mirror)",
                      RunVolumeScaling);

}  // namespace
}  // namespace ccnvme
