// perfbench: the repo benchmark. One closed-loop workload per durability
// architecture, each driven from outside the stack through public calls
// only (StorageStack, HostModel, ExtFs, MiniKv and the crash explorer).
//
//   fsync_mqfs     MQFS over ccNVMe, 4 cores x 2 contexts, 16 clients each
//                  doing Write + Fsync of 4 KB or 64 KB (3:1) on its own file.
//   varmail_nvlog  extfs + NVLog, 4 queues, 16 clients running Varmail's
//                  create, append and read steps in their own mail directory.
//   kv_mixed       MiniKv on the KV-SSD, 8 clients on 8 queues, 50% Put /
//                  40% Get / 10% Delete over a bounded key population.
//
// A run repeats the workload (fresh stack, same seed) until --seconds of
// host time have passed. Each of the first five repetitions cuts power at a
// seeded virtual instant, recovers and checks every acknowledged write, and
// is followed by an exploration of the architecture's registered crash
// workload. With --trace 1 one more repetition runs with metrics and the
// critical-path profiler attached and the per-layer metrics are printed.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject skip_psq_window_scan|skip_nvlog_fence|skip_ftl_shadow_commit]
//             [--spans PATH]
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <memory>
#include <string>
#include <vector>

#include "src/crashtest/crash_explorer.h"
#include "src/crashtest/crash_workloads.h"
#include "src/harness/host_model.h"
#include "src/mqfs/mq_journal.h"
#include "src/nvm/nvlog.h"
#include "src/workload/minikv.h"

namespace ccnvme {
namespace {

constexpr uint64_t kBlock = 4096;

// ---------------------------------------------------------------------------
// Host measurement

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of the whole process (every actor thread).
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// The simulator runs one actor at a time, so every actor switch is a
// thread handoff; on one CPU that handoff stays cheap and steady. The CPU
// is always the highest-numbered one allowed, so runs do not differ by
// which CPU they happened to start on. Threads created later inherit it.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  int cpu = CPU_SETSIZE - 1;
  while (cpu > 0 && !CPU_ISSET(cpu, &allowed)) {
    --cpu;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Seeded inputs

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Unique per (client, operation sequence); sequence 0 is the set-up write.
uint64_t Tag(uint32_t client, uint64_t seq) {
  return (static_cast<uint64_t>(client + 1) << 40) | seq;
}

// Bytes of a write: every 8-byte word depends on the write's tag and on
// its position, so a stale, torn or misplaced block never matches.
void Pattern(uint64_t tag, uint64_t position, uint8_t* out, size_t len) {
  for (size_t i = 0; i < len; i += 8) {
    const uint64_t word = Mix(tag, position + i);
    std::memcpy(out + i, &word, std::min<size_t>(8, len - i));
  }
}

Buffer PatternBuffer(uint64_t tag, uint64_t position, size_t len) {
  Buffer b(len);
  Pattern(tag, position, b.data(), len);
  return b;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans and samples (virtual time)

enum SpanKind : uint8_t {
  kFsWrite,
  kFsFsync,
  kFsRead,
  kFsNamespace,
  kKvPut,
  kKvGet,
  kKvDelete,
  kNumSpanKinds,
};

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "extfs.write", "extfs.fsync", "extfs.read", "extfs.namespace",
    "kv.put",      "kv.get",      "kv.delete"};

struct Span {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint32_t client = 0;
  SpanKind kind = kFsWrite;
};

// Operation classes of the end-to-end latency metrics.
enum class OpClass { kWrite, kRead };

struct Samples {
  std::vector<uint64_t> write_ns;
  std::vector<uint64_t> read_ns;
  std::vector<Span> spans;
  uint64_t ops = 0;         // completed operations
  uint64_t failures = 0;    // failed operations and wrong results
  uint64_t user_bytes = 0;  // bytes of acknowledged writes
  uint64_t last_ack_ns = 0;
};

// Times one call into the stack as a span of |kind|.
template <typename F>
auto Timed(Samples& s, uint32_t client, SpanKind kind, F&& fn) {
  Simulator* sim = Simulator::Current();
  const uint64_t begin = sim->now();
  auto result = fn();
  s.spans.push_back({begin, sim->now(), client, kind});
  return result;
}

// Closes one operation started at |begin_ns|; returns whether it succeeded.
bool Finish(Samples& s, OpClass cls, uint64_t begin_ns, bool ok) {
  if (!ok) {
    s.failures++;
    return false;
  }
  const uint64_t now = Simulator::Current()->now();
  s.ops++;
  s.last_ack_ns = std::max(s.last_ack_ns, now);
  (cls == OpClass::kWrite ? s.write_ns : s.read_ns).push_back(now - begin_ns);
  return true;
}

// Reports one post-cut violation on stderr and counts it.
void Violation(uint64_t* violations, const std::string& what) {
  std::fprintf(stderr, "cut check: %s\n", what.c_str());
  (*violations)++;
}

// Exact percentiles from raw samples (nearest rank). The high percentile
// is p99 when at least ten samples lie beyond it, else the highest
// percentile that still has ten.
struct Tail {
  double p50_us = 0;
  double high_us = 0;
  double high_q = 0.99;
  size_t count = 0;
};

Tail ExactTail(std::vector<uint64_t> ns) {
  Tail t;
  t.count = ns.size();
  if (ns.empty()) {
    return t;
  }
  std::sort(ns.begin(), ns.end());
  const double n = static_cast<double>(ns.size());
  auto at = [&](double q) {
    const size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(q * n)));
    return static_cast<double>(ns[std::min(rank, ns.size()) - 1]) / 1000.0;
  };
  t.high_q = std::max(0.5, std::min(0.99, 1.0 - 10.0 / n));
  t.p50_us = at(0.5);
  t.high_us = at(t.high_q);
  return t;
}

// ---------------------------------------------------------------------------
// Workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string inject;
  std::string spans_path;
};

void ApplyInjection(const std::string& inject, StackConfig* cfg) {
  cfg->fs.test_skip_psq_window_scan = inject == "skip_psq_window_scan";
  cfg->fs.test_skip_nvlog_fence = inject == "skip_nvlog_fence";
  cfg->kv.test_skip_ftl_shadow_commit = inject == "skip_ftl_shadow_commit";
}

class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;

  virtual StackConfig Config() const = 0;
  virtual HostModelConfig Host() const = 0;
  virtual uint32_t clients() const = 0;
  virtual uint16_t CoreOf(uint32_t client) const = 0;
  // Virtual length of the measured phase; clients stop issuing after it.
  virtual uint64_t duration_ns() const = 0;
  virtual TracePoint profile_root() const { return TracePoint::kSyncTotal; }

  virtual Status Format(StorageStack& stack) { return stack.MkfsAndMount(); }
  // Pre-creates files or keys; drives the simulator itself.
  virtual Status Prepare(StorageStack& stack) = 0;
  // One closed-loop operation of |client|.
  virtual void Step(StorageStack& stack, uint32_t client, Samples& out) = 0;
  // Freezes the acknowledged state and the in-flight operations (at the cut).
  virtual void SnapshotAcked() = 0;
  virtual Status Recover(StorageStack& stack) { return stack.MountExisting(); }
  // Checks the recovered stack against the snapshot; returns violations.
  // Reads it times land in |out|.read_ns.
  virtual uint64_t Verify(StorageStack& stack, Samples& out) = 0;
  virtual uint64_t DeviceBytesWritten(StorageStack& stack) const {
    return stack.link().traffic().block_io_bytes;
  }

  // The registered crash workload explored for this architecture, and the
  // stack it is explored on (the configs of the exhaustive crash tests).
  virtual std::string crash_workload() const = 0;
  virtual StackConfig CrashConfig() const = 0;

 protected:
  Rng ClientRng(uint32_t client) const { return Rng(Mix(seed_, client + 1)); }

  uint64_t seed_;
};

// --- fsync_mqfs ------------------------------------------------------------

class FsyncMqfs : public Workload {
 public:
  static constexpr uint32_t kCores = 4;
  static constexpr uint32_t kClients = 16;
  static constexpr uint32_t kRegionBlocks = 64;  // 256 KB overwritten per file

  explicit FsyncMqfs(uint64_t seed) : Workload(seed) {
    for (uint32_t c = 0; c < kClients; ++c) {
      clients_.push_back({ClientRng(c), 0, kInvalidInode,
                          std::vector<uint64_t>(kRegionBlocks, Tag(c, 0)), {}});
    }
  }

  StackConfig Config() const override {
    StackConfig cfg;
    cfg.ssd = SsdConfig::Optane905P();
    cfg.num_queues = kCores;
    cfg.enable_ccnvme = true;
    cfg.fs.journal = JournalKind::kMultiQueue;
    cfg.fs.journal_areas = kCores;
    return cfg;
  }
  HostModelConfig Host() const override {
    HostModelConfig h;
    h.num_cores = kCores;
    h.contexts_per_core = 2;
    return h;
  }
  uint32_t clients() const override { return kClients; }
  uint16_t CoreOf(uint32_t client) const override { return client % kCores; }
  uint64_t duration_ns() const override { return 40'000'000; }

  Status Prepare(StorageStack& stack) override {
    Status result = OkStatus();
    for (uint32_t c = 0; c < kClients; ++c) {
      stack.Spawn("prep" + std::to_string(c), [&, c] {
        auto ino = stack.fs().Create(Path(c));
        Status st = ino.status();
        if (ino.ok()) {
          clients_[c].ino = *ino;
          Buffer region(kRegionBlocks * kBlock);
          for (uint32_t b = 0; b < kRegionBlocks; ++b) {
            Pattern(Tag(c, 0), b * kBlock, region.data() + b * kBlock, kBlock);
          }
          st = stack.fs().Write(*ino, 0, region);
          if (st.ok()) {
            st = stack.fs().Fsync(*ino);
          }
        }
        if (!st.ok()) {
          result = st;
        }
      }, CoreOf(c));
    }
    stack.sim().Run();
    return result;
  }

  void Step(StorageStack& stack, uint32_t c, Samples& out) override {
    Client& cl = clients_[c];
    const uint32_t n = cl.rng.Uniform(4) == 0 ? 16 : 1;
    const uint32_t first = static_cast<uint32_t>(cl.rng.Uniform(kRegionBlocks - n + 1));
    const uint64_t tag = Tag(c, ++cl.seq);
    Buffer data(n * kBlock);
    for (uint32_t b = 0; b < n; ++b) {
      Pattern(tag, (first + b) * kBlock, data.data() + b * kBlock, kBlock);
    }
    cl.inflight = {true, first, n, tag};
    const uint64_t begin = stack.sim().now();
    Status st = Timed(out, c, kFsWrite,
                      [&] { return stack.fs().Write(cl.ino, first * kBlock, data); });
    if (st.ok()) {
      st = Timed(out, c, kFsFsync, [&] { return stack.fs().Fsync(cl.ino); });
    }
    if (Finish(out, OpClass::kWrite, begin, st.ok())) {
      std::fill_n(cl.blocks.begin() + first, n, tag);
      out.user_bytes += n * kBlock;
      cl.inflight.active = false;
    }
  }

  void SnapshotAcked() override {
    cut_.clear();
    for (const Client& cl : clients_) {
      cut_.push_back({cl.blocks, cl.inflight});
    }
  }

  // Reads back every block of every file: each must hold the last write
  // acknowledged before the cut, or the client's one in-flight write.
  uint64_t Verify(StorageStack& stack, Samples& out) override {
    uint64_t violations = 0;
    stack.Run([&] {
      if (Status cs = stack.fs().CheckConsistency(); !cs.ok()) {
        Violation(&violations, cs.ToString());
      }
      Buffer got(kBlock);
      Buffer want(kBlock);
      for (uint32_t c = 0; c < kClients; ++c) {
        const auto& [blocks, inflight] = cut_[c];
        auto ino = stack.fs().Lookup(Path(c));
        if (!ino.ok()) {
          Violation(&violations, Path(c) + ": " + ino.status().ToString());
          continue;
        }
        for (uint32_t b = 0; b < kRegionBlocks; ++b) {
          const uint64_t begin = stack.sim().now();
          const Status st = stack.fs().Read(*ino, b * kBlock, got);
          Finish(out, OpClass::kRead, begin, st.ok());
          Pattern(blocks[b], b * kBlock, want.data(), kBlock);
          bool match = st.ok() && got == want;
          if (!match && st.ok() && inflight.active && b >= inflight.first &&
              b < inflight.first + inflight.count) {
            Pattern(inflight.tag, b * kBlock, want.data(), kBlock);
            match = got == want;
          }
          if (!match) {
            Violation(&violations, Path(c) + " block " + std::to_string(b) + " lost its last write");
          }
        }
      }
    });
    return violations;
  }

  std::string crash_workload() const override { return "overwrite_mixed"; }
  StackConfig CrashConfig() const override {
    StackConfig cfg;
    cfg.num_queues = 2;
    cfg.fs.journal = JournalKind::kMultiQueue;
    cfg.fs.journal_areas = 2;
    cfg.fs.journal_blocks = 2048;
    return cfg;
  }

 private:
  struct InFlight {
    bool active = false;
    uint32_t first = 0;
    uint32_t count = 0;
    uint64_t tag = 0;
  };
  struct Client {
    Rng rng;
    uint64_t seq = 0;
    InodeNum ino = kInvalidInode;
    std::vector<uint64_t> blocks;  // acknowledged tag of each region block
    InFlight inflight;
  };

  static std::string Path(uint32_t c) { return "/f" + std::to_string(c); }

  std::vector<Client> clients_;
  std::vector<std::pair<std::vector<uint64_t>, InFlight>> cut_;
};

// --- varmail_nvlog ---------------------------------------------------------

class VarmailNvlog : public Workload {
 public:
  static constexpr uint32_t kQueues = 4;
  static constexpr uint32_t kClients = 16;
  static constexpr uint32_t kFilesPerClient = 10;  // at set-up; creates add more
  static constexpr uint32_t kMeanAppend = 8192;

  explicit VarmailNvlog(uint64_t seed) : Workload(seed) {
    for (uint32_t c = 0; c < kClients; ++c) {
      clients_.push_back({ClientRng(c), 0, 0, 0, {}, {}});
    }
  }

  StackConfig Config() const override {
    StackConfig cfg;
    cfg.ssd = SsdConfig::Optane905P();
    cfg.num_queues = kQueues;
    cfg.enable_ccnvme = false;
    cfg.fs.journal = JournalKind::kNvlog;
    // Four times the default tier, so the log never runs full within the
    // measured phase: with the default 16 MB ring it fills ~10 ms in, and
    // recovery after a cut from then on can lose acknowledged appends.
    cfg.nvm.size_bytes = 64 << 20;
    return cfg;
  }
  HostModelConfig Host() const override {
    HostModelConfig h;
    h.num_cores = kQueues;
    h.contexts_per_core = kClients / kQueues;
    return h;
  }
  uint32_t clients() const override { return kClients; }
  uint16_t CoreOf(uint32_t client) const override { return client % kQueues; }
  uint64_t duration_ns() const override { return 60'000'000; }

  Status Prepare(StorageStack& stack) override {
    Status result = OkStatus();
    for (uint32_t c = 0; c < kClients; ++c) {
      stack.Spawn("prep" + std::to_string(c), [&, c] {
        Client& cl = clients_[c];
        Status made = stack.fs().Mkdir(Dir(c));
        if (made.ok()) {
          made = stack.fs().FsyncPath("/");
        }
        if (!made.ok()) {
          result = made;
        }
        for (uint32_t i = 0; i < kFilesPerClient && result.ok(); ++i) {
          File f{Path(c, cl.next_name++), Body(c, cl)};
          auto ino = stack.fs().Create(f.path);
          Status st = ino.status();
          if (ino.ok()) {
            st = stack.fs().Write(*ino, 0, f.content);
          }
          if (st.ok()) {
            st = stack.fs().Fsync(*ino);
          }
          if (!st.ok()) {
            result = st;
          }
          cl.live.push_back(std::move(f));
        }
      }, CoreOf(c));
    }
    stack.sim().Run();
    return result;
  }

  // Varmail's steps, one per quantum: create + write + fsync; read the
  // whole file + append + fsync; read the whole file. Varmail's delete step
  // is left out: an unsynced unlink lets another client's fsync log the
  // shared inode-table block with the inode freed while the directory
  // block still names it, and NVLog recovery then leaves a dangling entry.
  void Step(StorageStack& stack, uint32_t c, Samples& out) override {
    Client& cl = clients_[c];
    ExtFs& fs = stack.fs();
    const uint32_t step = cl.step++ % 3;
    if (step == 0) {
      File f{Path(c, cl.next_name++), Body(c, cl)};
      const uint64_t begin = stack.sim().now();
      auto ino = Timed(out, c, kFsNamespace, [&] { return fs.Create(f.path); });
      Status st = ino.status();
      if (ino.ok()) {
        st = Timed(out, c, kFsWrite, [&] { return fs.Write(*ino, 0, f.content); });
      }
      if (st.ok()) {
        st = Timed(out, c, kFsFsync, [&] { return fs.Fsync(*ino); });
      }
      if (Finish(out, OpClass::kWrite, begin, st.ok())) {
        out.user_bytes += f.content.size();
        cl.live.push_back(std::move(f));
      }
    } else {
      File& f = cl.live[cl.rng.Uniform(cl.live.size())];
      auto ino = ReadWhole(stack, c, f, out);
      if (step == 1 && ino.ok()) {
        const size_t len = kMeanAppend / 4 + cl.rng.Uniform(kMeanAppend / 2);
        Buffer extra = PatternBuffer(Tag(c, ++cl.seq), f.content.size(), len);
        cl.inflight = {f.path, extra};
        const uint64_t begin = stack.sim().now();
        Status st = Timed(out, c, kFsWrite, [&] { return fs.Append(*ino, extra); });
        if (st.ok()) {
          st = Timed(out, c, kFsFsync, [&] { return fs.Fsync(*ino); });
        }
        if (Finish(out, OpClass::kWrite, begin, st.ok())) {
          out.user_bytes += extra.size();
          f.content.insert(f.content.end(), extra.begin(), extra.end());
          cl.inflight = {};
        }
      }
    }
  }

  void SnapshotAcked() override {
    cut_.clear();
    for (const Client& cl : clients_) {
      cut_.push_back({cl.live, cl.inflight});
    }
  }

  // Every mail file whose create or append was acknowledged before the cut
  // must hold its acknowledged bytes. Files are read back one 4 KB block at
  // a time; those reads are the workload's timed reads (its own reads hit
  // the page cache and take no virtual time).
  uint64_t Verify(StorageStack& stack, Samples& out) override {
    uint64_t violations = 0;
    stack.Run([&] {
      ExtFs& fs = stack.fs();
      if (Status cs = fs.CheckConsistency(); !cs.ok()) {
        Violation(&violations, cs.ToString());
      }
      for (const auto& [live, inflight] : cut_) {
        for (const File& f : live) {
          Buffer got;
          auto ino = fs.Lookup(f.path);
          auto size = ino.ok() ? fs.FileSize(*ino) : Result<uint64_t>(ino.status());
          bool read = size.ok();
          if (read) {
            got.resize(*size);
            for (uint64_t off = 0; read && off < got.size(); off += kBlock) {
              const uint64_t begin = stack.sim().now();
              const size_t len = std::min<uint64_t>(kBlock, got.size() - off);
              read = fs.Read(*ino, off, std::span<uint8_t>(got.data() + off, len)).ok();
              Finish(out, OpClass::kRead, begin, read);
            }
          }
          // An append still in flight may have reached media in part: its
          // size can be durable (another client's fsync commits the shared
          // inode-table block) before its data. Only acknowledged bytes count.
          const bool appending = inflight.path == f.path &&
                                 got.size() == f.content.size() + inflight.extra.size();
          const bool match =
              read && (got == f.content ||
                       (appending && std::equal(f.content.begin(), f.content.end(), got.begin())));
          if (!match) {
            Violation(&violations, f.path + ": " + std::to_string(got.size()) +
                                       " bytes, acknowledged " + std::to_string(f.content.size()));
          }
        }
      }
    });
    return violations;
  }

  std::string crash_workload() const override { return "nvlog_overwrite_churn"; }
  StackConfig CrashConfig() const override {
    StackConfig cfg;
    cfg.num_queues = 2;
    cfg.enable_ccnvme = false;
    cfg.fs.journal = JournalKind::kNvlog;
    cfg.nvm.size_bytes = 1 << 20;
    return cfg;
  }

 private:
  struct File {
    std::string path;
    Buffer content;  // acknowledged bytes
  };
  struct Append {
    std::string path;  // empty: no append in flight
    Buffer extra;
  };
  struct Client {
    Rng rng;
    uint64_t seq = 0;
    uint32_t step = 0;
    uint32_t next_name = 0;
    std::vector<File> live;
    Append inflight;
  };

  // One mailbox directory per client. With one shared directory, NVLog
  // recovery can leave a dangling entry: a client's fsync logs the shared
  // directory block holding another client's unsynced create, but not that
  // file's inode.
  static std::string Dir(uint32_t c) { return "/box" + std::to_string(c); }
  static std::string Path(uint32_t c, uint32_t i) {
    return Dir(c) + "/mail" + std::to_string(i);
  }
  static Buffer Body(uint32_t c, Client& cl) {
    const size_t len = kMeanAppend / 2 + cl.rng.Uniform(kMeanAppend);
    return PatternBuffer(Tag(c, ++cl.seq), 0, len);
  }

  // Lookup + read of a whole file, checked against the acknowledged bytes.
  Result<InodeNum> ReadWhole(StorageStack& stack, uint32_t c, const File& f, Samples& out) {
    ExtFs& fs = stack.fs();
    const uint64_t begin = stack.sim().now();
    auto ino = Timed(out, c, kFsNamespace, [&] { return fs.Lookup(f.path); });
    Status st = ino.status();
    Buffer got(f.content.size());
    if (ino.ok()) {
      st = Timed(out, c, kFsRead, [&] { return fs.Read(*ino, 0, got); });
    }
    Finish(out, OpClass::kRead, begin, st.ok() && got == f.content);
    return ino;
  }

  std::vector<Client> clients_;
  std::vector<std::pair<std::vector<File>, Append>> cut_;
};

// --- kv_mixed --------------------------------------------------------------

class KvMixed : public Workload {
 public:
  static constexpr uint32_t kClients = 8;
  static constexpr uint32_t kKeysPerClient = 64;
  static constexpr uint32_t kValueBytes = 1024;
  static constexpr uint32_t kKeyBytes = 16;

  explicit KvMixed(uint64_t seed) : Workload(seed) {
    for (uint32_t c = 0; c < kClients; ++c) {
      Client cl{ClientRng(c), 0, {}, std::vector<uint64_t>(kKeysPerClient, 0), {}};
      for (uint32_t k = 0; k < kKeysPerClient; ++k) {
        char key[kKeyBytes + 1];
        std::snprintf(key, sizeof(key), "%016llx",
                      static_cast<unsigned long long>(Mix(seed ^ 0x6b6579, c * 4096 + k)));
        cl.keys.emplace_back(key, kKeyBytes);
      }
      clients_.push_back(std::move(cl));
    }
  }

  // kv_stacks' tight geometry: 896 flash pages in 28 erase blocks, two L2P
  // map segments and a one-frame map cache, so GC and map misses never stop.
  StackConfig Config() const override {
    StackConfig cfg;
    cfg.ssd = SsdConfig::Optane905P();
    cfg.num_queues = kClients;
    cfg.enable_ccnvme = false;
    cfg.kv.enabled = true;
    cfg.kv.dir_slots = 2048;
    cfg.kv.flash_pages = 896;
    cfg.kv.pages_per_block = 32;
    cfg.kv.total_lpns = 1024;
    cfg.kv.map_cache_segments = 1;
    cfg.kv.gc_free_blocks_low = 2;
    return cfg;
  }
  HostModelConfig Host() const override {
    HostModelConfig h;
    h.num_cores = kClients;
    return h;
  }
  uint32_t clients() const override { return kClients; }
  uint16_t CoreOf(uint32_t client) const override { return static_cast<uint16_t>(client); }
  uint64_t duration_ns() const override { return 200'000'000; }
  TracePoint profile_root() const override { return TracePoint::kKvTotal; }

  Status Format(StorageStack& stack) override { return stack.KvFormat(); }

  Status Prepare(StorageStack& stack) override {
    MiniKvOptions opts;
    opts.backend = MiniKvBackend::kKvSsd;
    opts.value_size = kValueBytes;
    opts.key_size = kKeyBytes;
    kv_ = std::make_unique<MiniKv>(&stack, opts);
    Status result = OkStatus();
    stack.Run([&] { result = kv_->Open(); });
    for (uint32_t c = 0; c < kClients && result.ok(); ++c) {
      stack.Spawn("prep" + std::to_string(c), [&, c] {
        Client& cl = clients_[c];
        for (uint32_t k = 0; k < kKeysPerClient && result.ok(); ++k) {
          cl.tags[k] = Tag(c, ++cl.seq);
          const Status st = kv_->Put(cl.keys[k], Value(cl.tags[k], k));
          if (!st.ok()) {
            result = st;
          }
        }
      }, CoreOf(c));
    }
    stack.sim().Run();
    return result;
  }

  void Step(StorageStack& stack, uint32_t c, Samples& out) override {
    Client& cl = clients_[c];
    const uint64_t pick = cl.rng.Uniform(100);
    const uint32_t k = static_cast<uint32_t>(cl.rng.Uniform(kKeysPerClient));
    const std::string& key = cl.keys[k];
    const uint64_t begin = stack.sim().now();
    if (pick < 40) {
      auto got = Timed(out, c, kKvGet, [&] { return kv_->Get(key); });
      const bool ok = cl.tags[k] == 0
                          ? !got.ok() && got.status().code() == ErrorCode::kNotFound
                          : got.ok() && *got == Value(cl.tags[k], k);
      Finish(out, OpClass::kRead, begin, ok);
    } else if (pick < 50 && cl.tags[k] != 0) {
      cl.inflight = {true, k, 0};
      const Status st = Timed(out, c, kKvDelete, [&] { return kv_->Delete(key); });
      if (Finish(out, OpClass::kWrite, begin, st.ok())) {
        out.user_bytes += kKeyBytes;
        cl.tags[k] = 0;
        cl.inflight.active = false;
      }
    } else {
      // Puts, and deletes drawn for a key that is already absent.
      const uint64_t tag = Tag(c, ++cl.seq);
      cl.inflight = {true, k, tag};
      const Status st = Timed(out, c, kKvPut, [&] { return kv_->Put(key, Value(tag, k)); });
      if (Finish(out, OpClass::kWrite, begin, st.ok())) {
        out.user_bytes += kKeyBytes + kValueBytes;
        cl.tags[k] = tag;
        cl.inflight.active = false;
      }
    }
  }

  void SnapshotAcked() override {
    cut_.clear();
    for (const Client& cl : clients_) {
      cut_.push_back({cl.tags, cl.inflight});
    }
  }

  Status Recover(StorageStack& stack) override { return stack.KvAttach(); }

  // Every key holds its last value acknowledged before the cut (or is
  // absent after an acknowledged delete); a key with an operation in flight
  // may also hold that operation's outcome.
  uint64_t Verify(StorageStack& stack, Samples& out) override {
    uint64_t violations = 0;
    (void)out;
    stack.Run([&] {
      if (Status cs = stack.kv_ssd()->CheckConsistency(); !cs.ok()) {
        Violation(&violations, cs.ToString());
      }
      for (uint32_t c = 0; c < kClients; ++c) {
        const auto& [tags, inflight] = cut_[c];
        for (uint32_t k = 0; k < kKeysPerClient; ++k) {
          auto got = stack.kv_driver()->Retrieve(0, clients_[c].keys[k]);
          auto holds = [&](uint64_t tag) {
            if (tag == 0) {
              return !got.ok() && got.status().code() == ErrorCode::kNotFound;
            }
            const std::string want = Value(tag, k);
            return got.ok() && got->size() == want.size() &&
                   std::memcmp(got->data(), want.data(), want.size()) == 0;
          };
          if (!holds(tags[k]) && !(inflight.active && inflight.key == k && holds(inflight.tag))) {
            Violation(&violations, "key " + clients_[c].keys[k] + " lost its last update");
          }
        }
      }
    });
    return violations;
  }

  uint64_t DeviceBytesWritten(StorageStack& stack) const override {
    return stack.kv_ssd()->ftl().media_pages_written() * kBlock;
  }

  std::string crash_workload() const override { return "kv_overwrite_churn"; }
  StackConfig CrashConfig() const override {
    StackConfig cfg;
    cfg.num_queues = 1;
    cfg.enable_ccnvme = false;
    cfg.kv.enabled = true;
    cfg.kv.dir_slots = 64;
    cfg.kv.shadow_slots = 16;
    cfg.kv.flash_pages = 1024;
    cfg.kv.pages_per_block = 16;
    cfg.kv.total_lpns = 768;
    cfg.kv.map_cache_segments = 2;
    return cfg;
  }

 private:
  struct InFlight {
    bool active = false;
    uint32_t key = 0;
    uint64_t tag = 0;  // 0: a delete
  };
  struct Client {
    Rng rng;
    uint64_t seq = 0;
    std::vector<std::string> keys;
    std::vector<uint64_t> tags;  // acknowledged value tag per key, 0 = absent
    InFlight inflight;
  };

  static std::string Value(uint64_t tag, uint32_t k) {
    std::string v(kValueBytes, '\0');
    Pattern(tag, k, reinterpret_cast<uint8_t*>(v.data()), v.size());
    return v;
  }

  std::unique_ptr<MiniKv> kv_;
  std::vector<Client> clients_;
  std::vector<std::pair<std::vector<uint64_t>, InFlight>> cut_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "fsync_mqfs") {
    return std::make_unique<FsyncMqfs>(seed);
  }
  if (name == "varmail_nvlog") {
    return std::make_unique<VarmailNvlog>(seed);
  }
  if (name == "kv_mixed") {
    return std::make_unique<KvMixed>(seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Component counters, read before and after the measured phase

struct Counters {
  TrafficStats traffic;
  uint64_t events = 0;
  uint64_t nvme_commands = 0;
  uint64_t ssd_flushes = 0;
  uint64_t ccnvme_tx = 0;
  uint64_t mqfs_checkpoints = 0;
  uint64_t nvm_fences = 0;
  uint64_t nvlog_drained = 0;
  uint64_t nvlog_coalesced = 0;
  uint64_t ftl_host_pages = 0;
  uint64_t ftl_media_pages = 0;
  uint64_t ftl_gc_migrated = 0;
  uint64_t ftl_map_hits = 0;
  uint64_t ftl_map_loads = 0;
  uint64_t device_bytes = 0;
};

Counters ReadCounters(StorageStack& stack, const Workload& wl) {
  Counters c;
  c.traffic = stack.link().traffic();
  c.events = stack.sim().events_processed();
  c.nvme_commands = stack.controller().commands_executed();
  c.ssd_flushes = stack.ssd().flushes_served();
  c.ccnvme_tx = stack.ccnvme() != nullptr ? stack.ccnvme()->transactions_completed() : 0;
  c.nvm_fences = stack.nvm_device() != nullptr ? stack.nvm_device()->fences() : 0;
  if (auto* mq = dynamic_cast<MqJournal*>(stack.fs().journal())) {
    c.mqfs_checkpoints = mq->checkpoints();
  }
  if (auto* nv = dynamic_cast<NvLogJournal*>(stack.fs().journal())) {
    c.nvlog_drained = nv->drained_entries();
    c.nvlog_coalesced = nv->coalesced_blocks();
  }
  if (stack.kv_ssd() != nullptr) {
    const Ftl& ftl = stack.kv_ssd()->ftl();
    c.ftl_host_pages = ftl.host_pages_written();
    c.ftl_media_pages = ftl.media_pages_written();
    c.ftl_gc_migrated = ftl.gc_migrated_pages();
    c.ftl_map_hits = ftl.map_hits();
    c.ftl_map_loads = ftl.map_loads();
  }
  c.device_bytes = wl.DeviceBytesWritten(stack);
  return c;
}

// ---------------------------------------------------------------------------
// One repetition

struct Traced {
  uint64_t profiled_requests = 0;
  uint64_t profiled_latency_ns = 0;
  uint64_t blame_ns[kNumTraceLayers] = {};
  uint64_t edge_ns[kNumWaitEdges] = {};
  uint64_t bio_submits = 0;
  uint64_t violations = 0;
};

struct Rep {
  std::unique_ptr<Workload> wl;
  Samples samples;
  uint64_t phase_start_ns = 0;
  Counters before;
  Counters after;
  double ssd_write_util = 0;
  // Host time.
  double setup_s = 0;
  double build_ms = 0;
  double format_ms = 0;
  double wall_s = 0;
  double cpu_s = 0;
  // Power cut.
  bool cut_taken = false;
  CrashImage image;
  Traced traced;
  bool setup_ok = true;

  uint64_t phase_ns() const { return samples.last_ack_ns - phase_start_ns; }
  double write_amp() const {
    return static_cast<double>(after.device_bytes - before.device_bytes) /
           static_cast<double>(std::max<uint64_t>(1, samples.user_bytes));
  }
  // Everything measured in virtual time; identical for every repetition
  // of one seed, traced or not.
  std::string Fingerprint() const {
    uint64_t h = 0;
    for (uint64_t v : samples.write_ns) h = Mix(h, v);
    for (uint64_t v : samples.read_ns) h = Mix(h, v + 1);
    return std::to_string(samples.ops) + "/" + std::to_string(samples.failures) + "/" +
           std::to_string(phase_ns()) + "/" + std::to_string(h) + "/" +
           std::to_string(samples.user_bytes) + "/" +
           std::to_string(after.device_bytes - before.device_bytes);
  }
};

// Power cuts: the first kCuts repetitions each cut once, at a seeded
// instant in the i-th of kCuts equal slices of the middle 80% of the
// measured phase. The set of cuts is fixed by the seed, so the read-back and
// recovery figures are as deterministic as the rest of virtual time.
constexpr int kCuts = 5;

// |cut| is the index of this repetition's power cut, or -1 for none.
Rep RunRep(const Options& opt, bool traced, int cut) {
  Rep rep;
  rep.wl = MakeWorkload(opt.workload, opt.seed);
  Workload& wl = *rep.wl;
  StackConfig cfg = wl.Config();
  ApplyInjection(opt.inject, &cfg);

  const double t0 = WallSeconds();
  StorageStack stack(cfg);
  rep.build_ms = (WallSeconds() - t0) * 1e3;
  if (traced) {
    stack.EnableMetrics();
    ProfilerOptions popts;
    popts.root = wl.profile_root();
    stack.EnableProfiling(popts);
  }
  const double t1 = WallSeconds();
  rep.setup_ok = wl.Format(stack).ok();
  rep.format_ms = (WallSeconds() - t1) * 1e3;
  rep.setup_ok = rep.setup_ok && wl.Prepare(stack).ok();
  rep.setup_s = WallSeconds() - t0;
  if (traced) {
    stack.tracer()->ResetAggregation();
    stack.metrics()->ResetAggregation();
    stack.profiler()->ResetAggregation();
  }

  Simulator& sim = stack.sim();
  rep.phase_start_ns = sim.now();
  rep.samples.last_ack_ns = sim.now();
  const uint64_t end_ns = sim.now() + wl.duration_ns();
  HostModel host(&stack, wl.Host());
  for (uint32_t c = 0; c < wl.clients(); ++c) {
    host.AddClient("client" + std::to_string(c), [&, c] {
      if (sim.now() >= end_ns) {
        return false;
      }
      wl.Step(stack, c, rep.samples);
      return true;
    }, wl.CoreOf(c));
  }
  if (cut >= 0) {
    Rng rng(Mix(opt.seed, 0xc07 + static_cast<uint64_t>(cut)));
    const uint64_t slice = wl.duration_ns() * 8 / 10 / kCuts;
    const uint64_t at = rep.phase_start_ns + wl.duration_ns() / 10 +
                        slice * static_cast<uint64_t>(cut) + rng.Uniform(slice);
    sim.ScheduleAt(at, [&] {
      wl.SnapshotAcked();
      rep.image = stack.CaptureCrashImage();
      rep.cut_taken = true;
    });
  }

  rep.before = ReadCounters(stack, wl);
  const double w0 = WallSeconds();
  const double c0 = CpuSeconds();
  host.Run();
  rep.cpu_s = CpuSeconds() - c0;
  rep.wall_s = WallSeconds() - w0;
  rep.after = ReadCounters(stack, wl);
  rep.ssd_write_util = stack.ssd().WriteUtilizationSince(rep.phase_start_ns);

  if (traced) {
    Traced& t = rep.traced;
    const CriticalPathProfiler& prof = *stack.profiler();
    t.profiled_requests = prof.finished_requests();
    t.profiled_latency_ns = prof.total_latency_ns();
    for (const auto& [packed, agg] : prof.blame()) {
      const BlameKey key = BlameKey::FromPacked(packed);
      const TraceLayer layer = key.is_wait()
                                   ? WaitEdgeLayer(static_cast<WaitEdge>(key.index))
                                   : TracePointLayer(static_cast<TracePoint>(key.index));
      t.blame_ns[static_cast<size_t>(layer)] += agg.total_ns;
    }
    for (WaitEdge e : AllWaitEdges()) {
      t.edge_ns[static_cast<size_t>(e)] = stack.tracer()->edge_agg(e).total_ns;
    }
    t.bio_submits = stack.tracer()->agg(TracePoint::kBioSubmit).count;
    t.violations = stack.metrics()->TakeSnapshot().TotalViolations();
  }
  return rep;
}

// Boots a stack from the cut's image, recovers it and checks it.
struct Recovery {
  bool ok = false;
  bool cut_taken = false;
  uint64_t virtual_ns = 0;
  double host_ms = 0;
  uint64_t violations = 0;
  Samples reads;
};

Recovery RecoverAndVerify(const Options& opt, Rep& rep) {
  Recovery r;
  r.cut_taken = rep.cut_taken;
  if (!r.cut_taken) {
    return r;
  }
  StackConfig cfg = rep.wl->Config();
  ApplyInjection(opt.inject, &cfg);
  const double t0 = WallSeconds();
  StorageStack stack(cfg, rep.image);
  const uint64_t v0 = stack.sim().now();
  r.ok = rep.wl->Recover(stack).ok();
  r.virtual_ns = stack.sim().now() - v0;
  r.host_ms = (WallSeconds() - t0) * 1e3;
  r.violations = r.ok ? rep.wl->Verify(stack, r.reads) : 1;
  return r;
}

// ---------------------------------------------------------------------------
// Crash-state exploration of the architecture's registered crash workload

struct Exploration {
  ExplorerOptions options;
  CrashRecording rec;
  double record_ms = 0;
  std::vector<double> states_per_s;  // one per exploration
  ExplorerReport report;             // of the first exploration
  bool repeatable = true;            // later explorations matched it
  // Traced runs: per-plan costs over a seeded sample of boundaries.
  double build_state_us = 0;
  double check_state_ms = 0;
};

Exploration Record(const Options& opt, const Workload& wl) {
  Exploration x;
  StackConfig cfg = wl.CrashConfig();
  ApplyInjection(opt.inject, &cfg);
  Result<CrashWorkload> workload = FindCrashWorkload(wl.crash_workload());
  CCNVME_CHECK(workload.ok()) << wl.crash_workload();
  const double t0 = WallSeconds();
  x.rec = RecordWorkload(cfg, *workload);
  x.record_ms = (WallSeconds() - t0) * 1e3;
  x.options.seed = opt.seed;
  x.options.threads = 1;
  x.options.workload_name = wl.crash_workload();
  return x;
}

// Explores every consistency boundary of the recording once more.
void ExploreOnce(Exploration& x) {
  const double t0 = WallSeconds();
  ExplorerReport report = ExploreRecording(x.rec, x.options);
  x.states_per_s.push_back(static_cast<double>(report.states_checked) / (WallSeconds() - t0));
  if (x.states_per_s.size() == 1) {
    x.report = std::move(report);
  } else {
    x.repeatable = x.repeatable && report.Summary() == x.report.Summary();
  }
}

// Times BuildCrashState and CheckCrashState on up to four plans of each of
// eight seeded boundaries.
void TimePlans(Exploration& x) {
  const std::vector<size_t> boundaries = ConsistencyBoundaries(x.rec.events);
  Rng rng(Mix(x.options.seed, 0xb0));
  const uint64_t torn_seed = x.options.seed;
  double build_s = 0;
  double check_s = 0;
  size_t plans = 0;
  for (int i = 0; i < 8; ++i) {
    const size_t b = boundaries[rng.Uniform(boundaries.size())];
    const std::vector<CrashPlan> all = PlansForBoundary(x.rec, b, x.options).plans;
    for (size_t p = 0; p < all.size() && p < 4; ++p) {
      const double b0 = WallSeconds();
      (void)BuildCrashState(x.rec, all[p], torn_seed);
      const double b1 = WallSeconds();
      (void)CheckCrashState(x.rec, all[p], torn_seed);
      check_s += WallSeconds() - b1;
      build_s += b1 - b0;
      plans++;
    }
  }
  x.build_state_us = build_s * 1e6 / static_cast<double>(plans);
  x.check_state_ms = check_s * 1e3 / static_cast<double>(plans);
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void WriteSpans(const std::string& path, const Samples& s) {
  std::ofstream out(path);
  out << "kind\tclient\tbegin_ns\tend_ns\n";
  for (const Span& sp : s.spans) {
    out << kSpanNames[sp.kind] << '\t' << sp.client << '\t' << sp.begin_ns << '\t' << sp.end_ns
        << '\n';
  }
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

int Run(const Options& opt) {
  PinToOneCpu();
  const double start = WallSeconds();
  // The first kCuts repetitions each take one power cut, recovered and
  // checked right away; more uncut repetitions then fill --seconds (half of
  // it on traced runs, which add one traced repetition at the end).
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Rep> reps;
  std::vector<Recovery> recs;
  // One exploration after each cut repetition, so that host noise hits both
  // alike.
  Exploration ex = Record(opt, *MakeWorkload(opt.workload, opt.seed));
  for (int cut = 0; cut < kCuts; ++cut) {
    reps.push_back(RunRep(opt, /*traced=*/false, cut));
    recs.push_back(RecoverAndVerify(opt, reps.back()));
    reps.back().image = CrashImage();
    ExploreOnce(ex);
  }
  if (opt.trace) {
    TimePlans(ex);
  }
  while (WallSeconds() - start < budget) {
    reps.push_back(RunRep(opt, false, -1));
  }

  const Rep& first = reps[0];
  const Samples& s = first.samples;
  bool deterministic = true;
  bool setup_ok = true;
  std::vector<double> setup_s, build_ms, format_ms, ops_per_s, cpu_us_per_op, ns_per_event;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    deterministic = deterministic && r.Fingerprint() == first.Fingerprint();
    setup_ok = setup_ok && r.setup_ok;
    if (i == 0) {
      continue;  // warm-up for the host metrics
    }
    setup_s.push_back(r.setup_s);
    build_ms.push_back(r.build_ms);
    format_ms.push_back(r.format_ms);
    ops_per_s.push_back(static_cast<double>(r.samples.ops) / r.wall_s);
    cpu_us_per_op.push_back(PerOp(r.cpu_s * 1e6, r.samples.ops));
    ns_per_event.push_back(r.cpu_s * 1e9 / static_cast<double>(r.after.events - r.before.events));
  }

  bool recovered = true;
  uint64_t violations = 0;
  uint64_t violated_cuts = 0;
  std::vector<double> recovery_us, recover_host_ms;
  std::vector<uint64_t> readback_ns;
  for (const Recovery& r : recs) {
    recovered = recovered && r.ok && r.cut_taken;
    violations += r.violations;
    violated_cuts += r.violations > 0 ? 1 : 0;
    recovery_us.push_back(static_cast<double>(r.virtual_ns) / 1e3);
    recover_host_ms.push_back(r.host_ms);
    readback_ns.insert(readback_ns.end(), r.reads.read_ns.begin(), r.reads.read_ns.end());
  }

  // Reads: the post-recovery read-back where the workload records one (the
  // file systems), else the workload's own reads.
  const bool readback = !readback_ns.empty();
  const Tail writes = ExactTail(s.write_ns);
  const Tail reads = ExactTail(readback ? readback_ns : s.read_ns);
  const uint64_t attempted = s.ops + s.failures + kCuts + ex.report.states_checked;
  const uint64_t failed = s.failures + violated_cuts + ex.report.total_failures;

  std::printf("workload %s seed %llu: %zu repetitions, %llu ops in %.3f ms virtual per repetition\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), reps.size(),
              static_cast<unsigned long long>(s.ops), static_cast<double>(first.phase_ns()) / 1e6);
  std::printf("  write samples %zu (high percentile p%.2f), read samples %zu (p%.2f)%s\n",
              writes.count, writes.high_q * 100, reads.count, reads.high_q * 100,
              readback ? ", reads are the post-recovery read-back" : "");
  std::string cuts;
  for (double us : recovery_us) {
    cuts += " " + Num(us);
  }
  std::printf("  recovery us per cut:%s\n", cuts.c_str());
  std::printf("  failures: %llu operations, %llu violations in %llu of %d cuts, %zu of %zu "
              "explored crash states\n",
              static_cast<unsigned long long>(s.failures),
              static_cast<unsigned long long>(violations),
              static_cast<unsigned long long>(violated_cuts), kCuts, ex.report.total_failures,
              ex.report.states_checked);
  std::printf("  fail_ratio %s, deterministic repetitions %s\n",
              Num(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
              deterministic ? "yes" : "NO");
  std::string per_rep;
  for (double v : cpu_us_per_op) {
    per_rep += " " + Num(std::round(v));
  }
  std::printf("  host cpu us per op by repetition:%s\n", per_rep.c_str());
  std::printf("  explorations %zu, identical reports %s\n", ex.states_per_s.size(),
              ex.repeatable ? "yes" : "NO");
  bool correct = failed == 0 && deterministic && setup_ok && recovered && ex.repeatable;

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"sim_kops", static_cast<double>(s.ops) * 1e6 / static_cast<double>(first.phase_ns()),
         "kops/s"},
        {"sim_write_p50_us", writes.p50_us, "us"},
        {"sim_write_p99_us", writes.high_us, "us"},
        {"sim_read_p50_us", reads.p50_us, "us"},
        {"sim_read_p99_us", reads.high_us, "us"},
        {"write_amp", first.write_amp(), "ratio"},
        {"states_checked", static_cast<double>(ex.report.states_checked), "count"},
    };
  } else {
    Rep traced = RunRep(opt, /*traced=*/true, /*cut=*/-1);
    const Traced& t = traced.traced;
    // Observers never perturb virtual time (and the cut reps matched the
    // uncut ones above, so neither do power cuts).
    const bool identical = traced.Fingerprint() == first.Fingerprint();
    uint64_t blame_sum = 0;
    for (uint64_t ns : t.blame_ns) blame_sum += ns;
    const bool blame_exact = blame_sum == t.profiled_latency_ns && t.profiled_requests > 0;
    std::printf("  traced run: virtual metrics identical %s, blame sum exact %s, %llu profiled "
                "requests, %llu monitor violations\n",
                identical ? "yes" : "NO", blame_exact ? "yes" : "NO",
                static_cast<unsigned long long>(t.profiled_requests),
                static_cast<unsigned long long>(t.violations));
    correct = correct && identical && blame_exact && t.violations == 0;

    const uint64_t ops = traced.samples.ops;
    const Counters& a = traced.after;
    const Counters& b = traced.before;
    auto delta = [](uint64_t x, uint64_t y) { return static_cast<double>(x - y); };
    double span_ns[kNumSpanKinds] = {};
    uint64_t span_n[kNumSpanKinds] = {};
    for (const Span& sp : traced.samples.spans) {
      span_ns[sp.kind] += static_cast<double>(sp.end_ns - sp.begin_ns);
      span_n[sp.kind]++;
    }
    auto span_us = [&](SpanKind k) { return PerOp(span_ns[k], span_n[k]) / 1e3; };
    auto blame_us = [&](TraceLayer l) {
      return PerOp(static_cast<double>(t.blame_ns[static_cast<size_t>(l)]), t.profiled_requests) /
             1e3;
    };
    auto edge_us = [&](WaitEdge e) {
      return PerOp(static_cast<double>(t.edge_ns[static_cast<size_t>(e)]), ops) / 1e3;
    };
    const double ftl_host = delta(a.ftl_host_pages, b.ftl_host_pages);
    const double map_hits = delta(a.ftl_map_hits, b.ftl_map_hits);
    const double map_refs = map_hits + delta(a.ftl_map_loads, b.ftl_map_loads);
    const double drained = delta(a.nvlog_drained, b.nvlog_drained);
    // Host throughput and CPU cost are the best repetition's (the best
    // exploration's for crash states): on a shared machine a repetition's
    // cost flips between a fast mode and one ~25% slower, and a run's
    // median follows whichever mode dominated that run.
    metrics = {
        {"host.ops_per_s", *std::max_element(ops_per_s.begin(), ops_per_s.end()), "ops/s"},
        {"host.cpu_us_per_op", *std::min_element(cpu_us_per_op.begin(), cpu_us_per_op.end()),
         "us"},
        {"crashtest.states_per_s",
         *std::max_element(ex.states_per_s.begin(), ex.states_per_s.end()), "states/s"},
        {"sim.events_per_op", PerOp(delta(first.after.events, first.before.events), s.ops),
         "events"},
        {"sim.host_ns_per_event", Median(ns_per_event), "ns"},
        {"harness.build_ms", Median(build_ms), "ms"},
        {"harness.format_ms", Median(format_ms), "ms"},
        {"harness.recover_host_ms", Median(recover_host_ms), "ms"},
        {"harness.recover_virtual_us", Mean(recovery_us), "us"},
        {"extfs.write_us", span_us(kFsWrite), "us"},
        {"extfs.fsync_us", span_us(kFsFsync), "us"},
        {"extfs.read_us", span_us(kFsRead), "us"},
        {"extfs.namespace_us", span_us(kFsNamespace), "us"},
        {"kv.put_us", span_us(kKvPut), "us"},
        {"kv.get_us", span_us(kKvGet), "us"},
        {"kv.delete_us", span_us(kKvDelete), "us"},
        {"vfs.blame_us", blame_us(TraceLayer::kVfs), "us"},
        {"journal.blame_us", blame_us(TraceLayer::kJournal), "us"},
        {"block.blame_us", blame_us(TraceLayer::kBlock), "us"},
        {"driver.blame_us", blame_us(TraceLayer::kDriver), "us"},
        {"ccnvme.blame_us", blame_us(TraceLayer::kCcNvme), "us"},
        {"nvme.blame_us", blame_us(TraceLayer::kNvme), "us"},
        {"pcie.blame_us", blame_us(TraceLayer::kPcie), "us"},
        {"nvm.blame_us", blame_us(TraceLayer::kNvm), "us"},
        {"ftl.blame_us", blame_us(TraceLayer::kFtl), "us"},
        {"profiled.latency_us", PerOp(static_cast<double>(t.profiled_latency_ns),
                                      t.profiled_requests) / 1e3, "us"},
        {"wait.tx_durable_us", edge_us(WaitEdge::kTxDurable), "us"},
        {"wait.doorbell_coalesce_us", edge_us(WaitEdge::kDoorbellCoalesce), "us"},
        {"wait.nvlog_drain_us", edge_us(WaitEdge::kNvlogDrain), "us"},
        {"wait.nvm_flush_us", edge_us(WaitEdge::kNvmFlush), "us"},
        {"wait.ftl_gc_us", edge_us(WaitEdge::kFtlGc), "us"},
        {"wait.ftl_map_miss_us", edge_us(WaitEdge::kFtlMapMiss), "us"},
        {"wait.fsync_leader_us", edge_us(WaitEdge::kFsyncLeader), "us"},
        {"wait.journal_handle_us", edge_us(WaitEdge::kJournalHandle), "us"},
        {"wait.sq_full_us", edge_us(WaitEdge::kSqFull), "us"},
        {"pcie.mmio_writes_per_op", PerOp(delta(a.traffic.mmio_writes, b.traffic.mmio_writes), ops),
         "count"},
        {"pcie.irqs_per_op", PerOp(delta(a.traffic.irqs, b.traffic.irqs), ops), "count"},
        {"pcie.dma_bytes_per_op",
         PerOp(delta(a.traffic.dma_queue_bytes + a.traffic.block_io_bytes,
                     b.traffic.dma_queue_bytes + b.traffic.block_io_bytes), ops), "B"},
        {"block.ios_per_op", PerOp(static_cast<double>(t.bio_submits), ops), "count"},
        {"block.io_bytes_per_op",
         PerOp(t.bio_submits == 0 ? 0 : delta(a.traffic.block_io_bytes, b.traffic.block_io_bytes),
               ops), "B"},
        {"nvme.commands_per_op", PerOp(delta(a.nvme_commands, b.nvme_commands), ops), "count"},
        {"ssd.write_util", traced.ssd_write_util, "ratio"},
        {"ssd.flushes_per_op", PerOp(delta(a.ssd_flushes, b.ssd_flushes), ops), "count"},
        {"ccnvme.tx_per_op", PerOp(delta(a.ccnvme_tx, b.ccnvme_tx), ops), "count"},
        {"mqfs.checkpoints", delta(a.mqfs_checkpoints, b.mqfs_checkpoints), "count"},
        {"nvm.fences_per_op", PerOp(delta(a.nvm_fences, b.nvm_fences), ops), "count"},
        {"nvlog.coalesce_ratio",
         drained == 0 ? 0 : delta(a.nvlog_coalesced, b.nvlog_coalesced) / drained, "ratio"},
        {"ftl.waf", ftl_host == 0 ? 0 : delta(a.ftl_media_pages, b.ftl_media_pages) / ftl_host,
         "ratio"},
        {"ftl.gc_migrated_pages_per_op", PerOp(delta(a.ftl_gc_migrated, b.ftl_gc_migrated), ops),
         "count"},
        {"ftl.map_hit_ratio", map_refs == 0 ? 0 : map_hits / map_refs, "ratio"},
        {"crashtest.record_ms", ex.record_ms, "ms"},
        {"crashtest.build_state_us", ex.build_state_us, "us"},
        {"crashtest.check_state_ms", ex.check_state_ms, "ms"},
        {"crashtest.states_per_boundary",
         PerOp(static_cast<double>(ex.report.states_checked), ex.report.boundaries), "count"},
        {"trace.overhead_ratio",
         PerOp(traced.cpu_s * 1e6, ops) / Median(cpu_us_per_op), "ratio"},
        {"metrics.violations", static_cast<double>(t.violations), "count"},
    };
    if (!opt.spans_path.empty()) {
      WriteSpans(opt.spans_path, traced.samples);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace ccnvme

int main(int argc, char** argv) {
  ccnvme::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--inject") {
      opt.inject = value;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (ccnvme::MakeWorkload(opt.workload, opt.seed) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fsync_mqfs|varmail_nvlog|kv_mixed --seed N "
                 "--seconds S --trace 0|1 [--inject BUG] [--spans PATH]\n");
    return 2;
  }
  return ccnvme::Run(opt);
}
