#include "src/crashtest/crash_monkey.h"

#include <array>
#include <map>

#include "src/common/bytes.h"
#include "src/common/logging.h"

namespace ccnvme {

CrashTestReport CrashMonkey::Run(const CrashWorkload& workload, int num_crash_points) {
  const CrashRecording rec = RecordWorkload(config_, workload);
  CrashTestReport report;
  report.crash_points = num_crash_points;
  constexpr uint8_t kTornVariants = 2;
  for (int i = 0; i < num_crash_points; ++i) {
    // Random crash index, then a random fate for every uncertain item:
    // absent, present, or one of the torn variants.
    CrashPlan plan;
    plan.crash_index = rec.events.empty() ? 0 : rng_.Uniform(rec.events.size() + 1);
    const std::vector<UncertainItem> items = CollectUncertain(rec, plan.crash_index);
    plan.choices.reserve(items.size());
    for (size_t k = 0; k < items.size(); ++k) {
      plan.choices.push_back(
          static_cast<uint8_t>(rng_.Uniform(kChoiceTornBase + kTornVariants)));
    }
    const std::string failure = CheckCrashState(rec, plan, seed_);
    if (failure.empty()) {
      report.passed++;
    } else if (report.failures.size() < 10) {
      report.failures.push_back("crash@" + std::to_string(plan.crash_index) + ": " + failure);
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// The paper's four workloads (Table 4)

CrashWorkload CrashMonkey::CreateDelete() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    for (int i = 0; i < 6; ++i) {
      const std::string path = "/cd_" + std::to_string(i);
      auto ino = fs.Create(path);
      CCNVME_CHECK(ino.ok());
      Buffer data(512 + static_cast<size_t>(i) * 100, static_cast<uint8_t>(i));
      CCNVME_CHECK(fs.Write(*ino, 0, data).ok());
      CCNVME_CHECK(fs.Fsync(*ino).ok());
      ctx.AddFact(OracleFact::FileContent(fs, path));
    }
    for (int i = 0; i < 6; i += 2) {
      const std::string path = "/cd_" + std::to_string(i);
      ctx.InvalidateFact(path);
      CCNVME_CHECK(fs.Unlink(path).ok());
      CCNVME_CHECK(fs.FsyncPath("/").ok());
      ctx.AddFact(OracleFact::FileAbsent(path));
    }
  };
}

CrashWorkload CrashMonkey::Generic035() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    // rename() overwrite on an existing file.
    auto f1 = fs.Create("/035_src");
    CCNVME_CHECK(f1.ok());
    CCNVME_CHECK(fs.Write(*f1, 0, Buffer(1000, 0xAA)).ok());
    CCNVME_CHECK(fs.Fsync(*f1).ok());
    const OracleFact src_content = OracleFact::FileContent(fs, "/035_src");
    ctx.AddFact(src_content);

    auto f2 = fs.Create("/035_dst");
    CCNVME_CHECK(f2.ok());
    CCNVME_CHECK(fs.Write(*f2, 0, Buffer(2000, 0xBB)).ok());
    CCNVME_CHECK(fs.Fsync(*f2).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/035_dst"));

    ctx.InvalidateFact("/035_src");
    ctx.InvalidateFact("/035_dst");
    CCNVME_CHECK(fs.Rename("/035_src", "/035_dst").ok());
    CCNVME_CHECK(fs.FsyncPath("/").ok());
    ctx.AddFact(OracleFact::FileAbsent("/035_src"));
    OracleFact moved = src_content;
    moved.path = "/035_dst";
    ctx.AddFact(moved);

    // rename() overwrite on an (empty) existing directory.
    CCNVME_CHECK(fs.Mkdir("/035_da").ok());
    CCNVME_CHECK(fs.Mkdir("/035_db").ok());
    CCNVME_CHECK(fs.FsyncPath("/").ok());
    ctx.AddFact(OracleFact::DirExists("/035_da"));
    ctx.InvalidateFact("/035_da");
    ctx.InvalidateFact("/035_db");
    CCNVME_CHECK(fs.Rename("/035_da", "/035_db").ok());
    CCNVME_CHECK(fs.FsyncPath("/").ok());
    ctx.AddFact(OracleFact::FileAbsent("/035_da"));
    ctx.AddFact(OracleFact::DirExists("/035_db"));
  };
}

CrashWorkload CrashMonkey::Generic106() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    auto orig = fs.Create("/106_orig");
    CCNVME_CHECK(orig.ok());
    CCNVME_CHECK(fs.Write(*orig, 0, Buffer(1500, 0x11)).ok());
    CCNVME_CHECK(fs.Fsync(*orig).ok());
    const OracleFact content = OracleFact::FileContent(fs, "/106_orig");
    ctx.AddFact(content);

    CCNVME_CHECK(fs.Link("/106_orig", "/106_link").ok());
    CCNVME_CHECK(fs.FsyncPath("/").ok());
    OracleFact linked = content;
    linked.path = "/106_link";
    ctx.AddFact(linked);

    ctx.InvalidateFact("/106_orig");
    CCNVME_CHECK(fs.Unlink("/106_orig").ok());
    CCNVME_CHECK(fs.FsyncPath("/").ok());
    ctx.AddFact(OracleFact::FileAbsent("/106_orig"));
    ctx.AddFact(linked);  // still reachable through the link

    // Directory removal.
    CCNVME_CHECK(fs.Mkdir("/106_dir").ok());
    CCNVME_CHECK(fs.Create("/106_dir/t").ok());
    CCNVME_CHECK(fs.FsyncPath("/106_dir").ok());
    CCNVME_CHECK(fs.Unlink("/106_dir/t").ok());
    CCNVME_CHECK(fs.Rmdir("/106_dir").ok());
    CCNVME_CHECK(fs.FsyncPath("/").ok());
    ctx.AddFact(OracleFact::FileAbsent("/106_dir"));
  };
}

CrashWorkload CrashMonkey::Generic321() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    CCNVME_CHECK(fs.Mkdir("/321_d").ok());
    CCNVME_CHECK(fs.FsyncPath("/").ok());
    ctx.AddFact(OracleFact::DirExists("/321_d"));

    auto f = fs.Create("/321_d/f");
    CCNVME_CHECK(f.ok());
    CCNVME_CHECK(fs.Write(*f, 0, Buffer(3000, 0x77)).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    CCNVME_CHECK(fs.FsyncPath("/321_d").ok());
    const OracleFact content = OracleFact::FileContent(fs, "/321_d/f");
    ctx.AddFact(content);

    ctx.InvalidateFact("/321_d/f");
    CCNVME_CHECK(fs.Rename("/321_d/f", "/321_d/g").ok());
    CCNVME_CHECK(fs.FsyncPath("/321_d").ok());
    ctx.AddFact(OracleFact::FileAbsent("/321_d/f"));
    OracleFact moved = content;
    moved.path = "/321_d/g";
    ctx.AddFact(moved);

    // Nested directory fsync.
    CCNVME_CHECK(fs.Mkdir("/321_d/sub").ok());
    CCNVME_CHECK(fs.FsyncPath("/321_d").ok());
    ctx.AddFact(OracleFact::DirExists("/321_d/sub"));
  };
}

CrashWorkload CrashMonkey::TruncateShrinkGrow() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    auto f = fs.Create("/tr");
    CCNVME_CHECK(f.ok());
    CCNVME_CHECK(fs.Write(*f, 0, Buffer(6 * kFsBlockSize, 0x61)).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/tr"));

    ctx.InvalidateFact("/tr");
    CCNVME_CHECK(fs.Truncate(*f, kFsBlockSize + 17).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/tr"));

    // The freed blocks get reused by another file immediately.
    auto g = fs.Create("/reuser");
    CCNVME_CHECK(g.ok());
    CCNVME_CHECK(fs.Write(*g, 0, Buffer(5 * kFsBlockSize, 0x62)).ok());
    CCNVME_CHECK(fs.Fsync(*g).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/reuser"));

    // Grow the truncated file back over a hole and persist again.
    ctx.InvalidateFact("/tr");
    CCNVME_CHECK(fs.Truncate(*f, 4 * kFsBlockSize).ok());
    CCNVME_CHECK(fs.Write(*f, 3 * kFsBlockSize, Buffer(100, 0x63)).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/tr"));
  };
}

CrashWorkload CrashMonkey::OverwriteMixed() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    auto f = fs.Create("/ow");
    CCNVME_CHECK(f.ok());
    CCNVME_CHECK(fs.Write(*f, 0, Buffer(4 * kFsBlockSize, 0x10)).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/ow"));

    // A sequence of overwrite+append rounds, each fsynced.
    for (int round = 1; round <= 4; ++round) {
      ctx.InvalidateFact("/ow");
      // Overwrite the middle of an existing block (RMW path).
      CCNVME_CHECK(fs.Write(*f, kFsBlockSize + 200, Buffer(900,
                            static_cast<uint8_t>(0x20 + round))).ok());
      // Append one more block.
      CCNVME_CHECK(fs.Append(*f, Buffer(kFsBlockSize,
                             static_cast<uint8_t>(0x30 + round))).ok());
      CCNVME_CHECK(fs.Fsync(*f).ok());
      ctx.AddFact(OracleFact::FileContent(fs, "/ow"));
    }
  };
}

CrashWorkload CrashMonkey::AtomicOverwrite() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    auto f = fs.Create("/at");
    CCNVME_CHECK(f.ok());
    CCNVME_CHECK(fs.Write(*f, 0, Buffer(3 * kFsBlockSize, 0xA1)).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    const OracleFact before = OracleFact::FileContent(fs, "/at");
    ctx.AddFact(before);

    // Multi-block in-place overwrite made atomic by fatomic (§5.1): after a
    // crash the file holds the old bytes or the new ones, never a mix. The
    // new content's hash is read back through the page cache before any of
    // it is persisted.
    CCNVME_CHECK(fs.Write(*f, 0, Buffer(3 * kFsBlockSize, 0xB2)).ok());
    const OracleFact after = OracleFact::FileContent(fs, "/at");
    ctx.InvalidateFact("/at");
    ctx.AddFact(OracleFact::ContentOneOf(before, after));
    CCNVME_CHECK(fs.Fatomic(*f).ok());

    // fatomic returned at the atomicity point; durability needs the fsync.
    CCNVME_CHECK(fs.Fsync(*f).ok());
    ctx.InvalidateFact("/at");
    ctx.AddFact(after);

    // Second round through fdataatomic.
    CCNVME_CHECK(fs.Write(*f, 0, Buffer(3 * kFsBlockSize, 0xC3)).ok());
    const OracleFact after2 = OracleFact::FileContent(fs, "/at");
    ctx.InvalidateFact("/at");
    ctx.AddFact(OracleFact::ContentOneOf(after, after2));
    CCNVME_CHECK(fs.Fdataatomic(*f).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    ctx.InvalidateFact("/at");
    ctx.AddFact(after2);
  };
}

// ---------------------------------------------------------------------------
// NVLog workloads

CrashWorkload CrashMonkey::NvlogAppends() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    // Two files, alternating appends. Each fsync returns at the NVM fence;
    // the drainer's block-stack checkpoint trails behind, so the recorded
    // stream interleaves armed facts with undrained log entries.
    auto a = fs.Create("/nv_a");
    auto b = fs.Create("/nv_b");
    CCNVME_CHECK(a.ok() && b.ok());
    for (int round = 0; round < 3; ++round) {
      if (round > 0) {
        ctx.InvalidateFact("/nv_a");
      }
      CCNVME_CHECK(
          fs.Append(*a, Buffer(800 + static_cast<size_t>(round) * 300,
                               static_cast<uint8_t>(0x50 + round))).ok());
      CCNVME_CHECK(fs.Fsync(*a).ok());
      ctx.AddFact(OracleFact::FileContent(fs, "/nv_a"));

      if (round > 0) {
        ctx.InvalidateFact("/nv_b");
      }
      CCNVME_CHECK(fs.Append(*b, Buffer(kFsBlockSize / 2,
                                        static_cast<uint8_t>(0x70 + round))).ok());
      CCNVME_CHECK(fs.Fsync(*b).ok());
      ctx.AddFact(OracleFact::FileContent(fs, "/nv_b"));
    }
  };
}

CrashWorkload CrashMonkey::NvlogOverwriteChurn() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    auto f = fs.Create("/nv_churn");
    CCNVME_CHECK(f.ok());
    CCNVME_CHECK(fs.Write(*f, 0, Buffer(2 * kFsBlockSize, 0x01)).ok());
    CCNVME_CHECK(fs.Fsync(*f).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/nv_churn"));
    // Each round logs a fresh copy of the SAME data block; all the copies
    // can sit undrained in the ring together, so recovery's in-seq replay
    // (and the drainer's newest-wins coalescing) must pick the last one.
    for (int round = 1; round <= 4; ++round) {
      ctx.InvalidateFact("/nv_churn");
      CCNVME_CHECK(fs.Write(*f, 100, Buffer(kFsBlockSize,
                            static_cast<uint8_t>(0x80 + round))).ok());
      CCNVME_CHECK(fs.Fsync(*f).ok());
      ctx.AddFact(OracleFact::FileContent(fs, "/nv_churn"));
    }
  };
}

// ---------------------------------------------------------------------------
// KV-native (KV-SSD) workloads

CrashWorkload CrashMonkey::KvPutGet() {
  return [](CrashTestContext& ctx) {
    KvNvmeDriver& kv = ctx.kv();
    std::vector<std::string> values;
    for (int i = 0; i < 5; ++i) {
      const std::string key = "k" + std::to_string(i);
      values.push_back(std::string(600 + static_cast<size_t>(i) * 1700,
                                   static_cast<char>('a' + i)));
      // The store is about to enter the device-side commit window: a crash
      // may land before or after the meta word, so either version is legal
      // — a mix never is.
      ctx.AddFact(OracleFact::KvOneOf(OracleFact::KvAbsent(key),
                                      OracleFact::KvValue(key, values.back())));
      CCNVME_CHECK(kv.Store(0, key, values.back()).ok());
      ctx.InvalidateFact(key);
      ctx.AddFact(OracleFact::KvValue(key, values.back()));
    }

    // Overwrite: the new value lands on fresh flash pages; the old run is
    // freed only after the meta word flips.
    const std::string nv(3 * 4096 + 123, 'Z');
    ctx.InvalidateFact("k2");
    ctx.AddFact(OracleFact::KvOneOf(OracleFact::KvValue("k2", values[2]),
                                    OracleFact::KvValue("k2", nv)));
    CCNVME_CHECK(kv.Store(0, "k2", nv).ok());
    ctx.InvalidateFact("k2");
    ctx.AddFact(OracleFact::KvValue("k2", nv));

    // Delete: old value or absent until the tombstone word is durable.
    ctx.InvalidateFact("k1");
    ctx.AddFact(OracleFact::KvOneOf(OracleFact::KvValue("k1", values[1]),
                                    OracleFact::KvAbsent("k1")));
    CCNVME_CHECK(kv.Delete(0, "k1").ok());
    ctx.InvalidateFact("k1");
    ctx.AddFact(OracleFact::KvAbsent("k1"));

    // Survivors double-checked through Exist/Retrieve (adds read traffic —
    // map demand loads — to the recorded stream without changing facts).
    auto e = kv.Exist(0, "k0");
    CCNVME_CHECK(e.ok() && *e);
    auto got = kv.Retrieve(0, "k2");
    CCNVME_CHECK(got.ok() && got->size() == nv.size());
  };
}

CrashWorkload CrashMonkey::KvOverwriteChurn() {
  return [](CrashTestContext& ctx) {
    KvNvmeDriver& kv = ctx.kv();
    // One hot key + a few cold ones pinning pages so small-geometry configs
    // hit the GC low-water mark mid-churn.
    std::vector<std::string> cold;
    for (int i = 0; i < 3; ++i) {
      const std::string key = "cold" + std::to_string(i);
      cold.push_back(std::string(2 * 4096, static_cast<char>('A' + i)));
      ctx.AddFact(OracleFact::KvOneOf(OracleFact::KvAbsent(key),
                                      OracleFact::KvValue(key, cold.back())));
      CCNVME_CHECK(kv.Store(0, key, cold.back()).ok());
      ctx.InvalidateFact(key);
      ctx.AddFact(OracleFact::KvValue(key, cold.back()));
    }
    std::string prev;
    for (int round = 0; round < 6; ++round) {
      const std::string next(3 * 4096 + static_cast<size_t>(round) * 512,
                             static_cast<char>('a' + round));
      ctx.InvalidateFact("hot");
      ctx.AddFact(OracleFact::KvOneOf(
          round == 0 ? OracleFact::KvAbsent("hot") : OracleFact::KvValue("hot", prev),
          OracleFact::KvValue("hot", next)));
      CCNVME_CHECK(kv.Store(0, "hot", next).ok());
      ctx.InvalidateFact("hot");
      ctx.AddFact(OracleFact::KvValue("hot", next));
      prev = next;
    }
  };
}

CrashWorkload CrashMonkey::KvConcurrentChurn() {
  return [](CrashTestContext& ctx) {
    // The device probes from Fnv1a(key) % dir_slots: keys equal modulo 1024
    // share a home slot in every power-of-two directory up to that size.
    auto home = [](const std::string& key) {
      return Fnv1a({reinterpret_cast<const uint8_t*>(key.data()), key.size()}) % 1024;
    };
    std::vector<std::string> keys = {"chain0"};
    for (int i = 1; keys.size() < 2; ++i) {
      if (home("chain" + std::to_string(i)) == home(keys[0])) {
        keys.push_back("chain" + std::to_string(i));
      }
    }
    constexpr uint16_t kCores = 2;
    for (uint16_t core = 0; core < kCores; ++core) {
      ctx.SpawnOnCore(core, [&ctx, core, key = keys[core]] {
        std::string prev;
        for (int round = 0; round < 12; ++round) {
          // Two pages; core 0 fills with 'A'..'L', core 1 with 'M'..'X'.
          const std::string next(4096 + 256 + static_cast<size_t>(round) * 256 + core * 128,
                                 static_cast<char>('A' + core * 12 + round));
          ctx.InvalidateFact(key);
          ctx.AddFact(OracleFact::KvOneOf(
              round == 0 ? OracleFact::KvAbsent(key) : OracleFact::KvValue(key, prev),
              OracleFact::KvValue(key, next)));
          CCNVME_CHECK(ctx.kv().Store(core, key, next).ok());
          ctx.InvalidateFact(key);
          ctx.AddFact(OracleFact::KvValue(key, next));
          prev = next;
        }
      });
    }
    ctx.Join();
  };
}

CrashWorkload CrashMonkey::KvPackedChurn() {
  return [](CrashTestContext& ctx) {
    // Fill a 4 KB staging frame after one to eleven values.
    static constexpr size_t kSizes[] = {360, 1000, 1530, 2100, 700, 3000, 130};
    constexpr uint16_t kCores = 2;
    constexpr int kRounds = 8;
    for (uint16_t core = 0; core < kCores; ++core) {
      ctx.SpawnOnCore(core, [&ctx, core] {
        auto store = [&](const std::string& key, const std::string* prev,
                         const std::string& next) {
          ctx.InvalidateFact(key);
          ctx.AddFact(OracleFact::KvOneOf(
              prev == nullptr ? OracleFact::KvAbsent(key) : OracleFact::KvValue(key, *prev),
              OracleFact::KvValue(key, next)));
          CCNVME_CHECK(ctx.kv().Store(core, key, next).ok());
          ctx.InvalidateFact(key);
          ctx.AddFact(OracleFact::KvValue(key, next));
        };
        store("cold" + std::to_string(core), nullptr,
              std::string(900 + core * 200, static_cast<char>('a' + core)));
        std::map<std::string, std::string> live;
        for (int round = 0; round < kRounds; ++round) {
          const std::string key = "p" + std::to_string(core) + "." + std::to_string(round % 3);
          auto it = live.find(key);
          if (round % 5 == 4 && it != live.end()) {
            ctx.InvalidateFact(key);
            ctx.AddFact(OracleFact::KvOneOf(OracleFact::KvValue(key, it->second),
                                            OracleFact::KvAbsent(key)));
            CCNVME_CHECK(ctx.kv().Delete(core, key).ok());
            ctx.InvalidateFact(key);
            ctx.AddFact(OracleFact::KvAbsent(key));
            live.erase(it);
            continue;
          }
          // Letters only, so a packed page is told from a map page by its
          // first byte.
          const std::string next(kSizes[(round + core * 3) % 7],
                                 static_cast<char>('c' + (round + core * 11) % 24));
          store(key, it == live.end() ? nullptr : &it->second, next);
          live[key] = next;
        }
      });
    }
    ctx.Join();
  };
}

// ---------------------------------------------------------------------------
// Multi-core workloads

namespace {

// Two actors, actor i bound to cores[i], each append+fsync its own file for
// three rounds.
CrashWorkload OwnFileAppends(std::array<uint16_t, 2> cores) {
  return [cores](CrashTestContext& ctx) {
    for (uint16_t actor = 0; actor < cores.size(); ++actor) {
      ctx.SpawnOnCore(cores[actor], [&ctx, actor] {
        ExtFs& fs = ctx.fs();
        const std::string path = "/mc_" + std::to_string(actor);
        auto ino = fs.Create(path);
        CCNVME_CHECK(ino.ok());
        for (int round = 0; round < 3; ++round) {
          if (round > 0) {
            ctx.InvalidateFact(path);
          }
          const size_t len = kFsBlockSize / 2 + static_cast<size_t>(round) * 300;
          const uint8_t fill = static_cast<uint8_t>(0x40 + actor * 8 + round);
          CCNVME_CHECK(fs.Append(*ino, Buffer(len, fill)).ok());
          CCNVME_CHECK(fs.Fsync(*ino).ok());
          // The file is exclusive to this actor, so freezing its content
          // right after fsync is race-free even mid-interleaving.
          ctx.AddFact(OracleFact::FileContent(fs, path));
        }
      });
    }
    ctx.Join();
  };
}

}  // namespace

CrashWorkload CrashMonkey::MultiCoreAppends() { return OwnFileAppends({0, 1}); }

CrashWorkload CrashMonkey::SameCoreAppends() { return OwnFileAppends({0, 0}); }

CrashWorkload CrashMonkey::MultiCoreSharedFsync() {
  return [](CrashTestContext& ctx) {
    ExtFs& fs = ctx.fs();
    constexpr uint16_t kCores = 2;
    constexpr uint64_t kRegion = 2 * kFsBlockSize;
    auto ino = fs.Create("/shared");
    CCNVME_CHECK(ino.ok());
    CCNVME_CHECK(fs.Write(*ino, 0, Buffer(kCores * kRegion, 0x00)).ok());
    CCNVME_CHECK(fs.Fsync(*ino).ok());
    ctx.AddFact(OracleFact::FileContent(fs, "/shared"));

    // The writers are about to legally mutate the file.
    ctx.InvalidateFact("/shared");
    const InodeNum shared = *ino;
    for (uint16_t core = 0; core < kCores; ++core) {
      ctx.SpawnOnCore(core, [&ctx, &fs, shared, core] {
        const uint64_t off = core * kRegion;
        CCNVME_CHECK(
            fs.Write(shared, off, Buffer(kRegion, static_cast<uint8_t>(0xA0 + core))).ok());
        // Both cores fsync the SAME inode concurrently: one becomes the
        // group-commit leader, the other piggybacks or follows. When OUR
        // fsync returns, OUR region must be durable — the exact guarantee
        // the test_skip_cross_core_order injected bug breaks.
        CCNVME_CHECK(fs.Fsync(shared).ok());
        ctx.AddFact(OracleFact::FileRegion(fs, "/shared", off, kRegion));
      });
    }
    ctx.Join();
    // All writers done and fsynced: the whole file is stable again.
    ctx.AddFact(OracleFact::FileContent(fs, "/shared"));
  };
}

}  // namespace ccnvme
