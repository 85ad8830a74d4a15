// FTL unit battery (ctest label: "kvssd"): the demand-paged L2P map, the
// out-of-place write path and greedy GC are driven directly over a RAM
// flash, with a reference map checking every translation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/ssd/ftl.h"

namespace ccnvme {
namespace {

// RAM-backed FtlEnv: flash pages and the GTD live in plain maps, media ops
// are free unless a program latency is given. Latency/trace behaviour is
// covered by the full-stack KV tests.
class RamEnv : public FtlEnv {
 public:
  explicit RamEnv(uint64_t erase_latency_ns = 0, uint64_t program_ns = 0)
      : erase_latency_ns_(erase_latency_ns), program_ns_(program_ns) {}

  void PersistGtd(uint32_t seg, uint64_t ppn) override {
    gtd_[seg] = ppn;
    gtd_persists_++;
  }
  uint64_t LoadGtd(uint32_t seg) override {
    auto it = gtd_.find(seg);
    return it == gtd_.end() ? kFtlUnmapped : it->second;
  }
  bool FlashWrite(uint64_t ppn, const Buffer& data) override {
    flash_[ppn] = data;
    if (program_ns_ > 0) {
      Simulator::Sleep(program_ns_);
    }
    return true;
  }
  bool FlashRead(uint64_t ppn, Buffer* out) override {
    auto it = flash_.find(ppn);
    if (it == flash_.end()) {
      return false;
    }
    *out = it->second;
    return true;
  }
  uint64_t EraseLatencyNs() const override { return erase_latency_ns_; }
  void OnMapCheckpointed() override { checkpoints_++; }

  const Buffer* page(uint64_t ppn) const {
    auto it = flash_.find(ppn);
    return it == flash_.end() ? nullptr : &it->second;
  }
  int checkpoints() const { return checkpoints_; }
  int gtd_persists() const { return gtd_persists_; }

 private:
  std::map<uint64_t, Buffer> flash_;
  std::map<uint32_t, uint64_t> gtd_;
  uint64_t erase_latency_ns_;
  uint64_t program_ns_;
  int checkpoints_ = 0;
  int gtd_persists_ = 0;
};

// Tight geometry: 3 map segments (demand paging with a 2-frame cache), 64
// erase blocks, logical space at 75% of physical so GC has an OP area.
FtlConfig TightConfig() {
  FtlConfig cfg;
  cfg.flash_pages = 2048;
  cfg.pages_per_block = 32;
  cfg.total_lpns = 1536;
  cfg.map_entries_per_segment = 512;
  cfg.map_cache_segments = 2;
  cfg.gc_free_blocks_low = 2;
  return cfg;
}

Buffer PageFor(uint64_t lpn, uint32_t version) {
  Buffer data(4096);
  PutU64(data, 0, lpn);
  PutU32(data, 8, version);
  return data;
}

// AllocRun for a caller that holds no lock: waits out a busy result (an
// erase in flight) the way KvSsd::ExecStore does with its lock released.
uint64_t AllocRunWaiting(Ftl& ftl, uint32_t n) {
  uint64_t ready_at = 0;
  uint64_t ppn;
  while ((ppn = ftl.AllocRun(n, &ready_at)) == kFtlBusy) {
    EXPECT_GT(ready_at, 0u) << "no pins are taken here";
    Simulator::Sleep(ready_at - Simulator::Current()->now());
  }
  return ppn;
}

// One front-end write of a single-page value: out-of-place alloc, program,
// map install — the same sequence KvSsd::ExecStore runs per page.
void HostWrite(Ftl& ftl, RamEnv& env, uint64_t lpn, uint32_t version) {
  const uint64_t ppn = AllocRunWaiting(ftl, 1);
  ASSERT_NE(ppn, kFtlUnmapped) << "device full";
  ASSERT_TRUE(env.FlashWrite(ppn, PageFor(lpn, version)));
  ftl.MapInstall(lpn, ppn);
  ftl.CountHostPage();
}

// Random overwrite/erase churn over the whole logical space, tracked
// against a reference map.
void RunChurn(Ftl& ftl, RamEnv& env, uint64_t seed, int ops,
              std::map<uint64_t, uint32_t>* ref) {
  Rng rng(seed);
  uint32_t version = 0;
  for (int i = 0; i < ops; ++i) {
    const uint64_t lpn = rng.Uniform(ftl.config().total_lpns);
    if (rng.Uniform(10) < 8 || ref->count(lpn) == 0) {
      HostWrite(ftl, env, lpn, ++version);
      (*ref)[lpn] = version;
    } else {
      ftl.MapErase(lpn);
      ref->erase(lpn);
    }
  }
}

void VerifyAgainstReference(Ftl& ftl, RamEnv& env,
                            const std::map<uint64_t, uint32_t>& ref) {
  for (const auto& [lpn, version] : ref) {
    const uint64_t ppn = ftl.MapLookup(lpn);
    ASSERT_NE(ppn, kFtlUnmapped) << "lost mapping for lpn " << lpn;
    const Buffer* page = env.page(ppn);
    ASSERT_NE(page, nullptr) << "mapping for lpn " << lpn << " points at unwritten flash";
    EXPECT_EQ(GetU64(*page, 0), lpn);
    EXPECT_EQ(GetU32(*page, 8), version);
  }
  // Unmapped logical pages stay unmapped.
  for (uint64_t lpn = 0; lpn < ftl.config().total_lpns; lpn += 97) {
    if (ref.count(lpn) == 0) {
      EXPECT_EQ(ftl.MapLookup(lpn), kFtlUnmapped);
    }
  }
}

TEST(FtlTest, RandomChurnMatchesReferenceMap) {
  Simulator sim;
  RamEnv env;
  Ftl ftl(&sim, &env, TightConfig());
  std::map<uint64_t, uint32_t> ref;
  sim.Spawn("churn", [&] {
    RunChurn(ftl, env, /*seed=*/7, /*ops=*/4000, &ref);
    VerifyAgainstReference(ftl, env, ref);
  });
  sim.Run();
  ASSERT_GT(ref.size(), 100u);

  // 4000 single-page writes into a 2048-page device forced real GC, and GC
  // migrations made the media write count strictly exceed the host's.
  EXPECT_GT(ftl.gc_runs(), 0u);
  EXPECT_GT(ftl.waf(), 1.0);
  EXPECT_GT(ftl.erases(), 0u);
  EXPECT_GT(env.checkpoints(), 0);
}

TEST(FtlTest, GcNeverLosesLivePagesUnderErasePressure) {
  Simulator sim;
  RamEnv env;
  FtlConfig cfg = TightConfig();
  cfg.gc_free_blocks_low = 4;  // aggressive: GC on most allocations
  Ftl ftl(&sim, &env, cfg);
  std::map<uint64_t, uint32_t> ref;
  sim.Spawn("churn", [&] {
    RunChurn(ftl, env, /*seed=*/99, /*ops=*/6000, &ref);
    VerifyAgainstReference(ftl, env, ref);
  });
  sim.Run();
  EXPECT_GT(ftl.gc_migrated_pages(), 0u);

  // Liveness accounting: the per-block valid counters sum to exactly the
  // live data pages plus the persisted map pages.
  uint64_t valid = 0;
  for (uint32_t b = 0; b < ftl.num_blocks(); ++b) {
    valid += ftl.block_valid_pages(b);
  }
  uint64_t map_pages = 0;
  for (uint32_t seg = 0; seg < ftl.num_segments(); ++seg) {
    if (env.LoadGtd(seg) != kFtlUnmapped) {
      map_pages++;
    }
  }
  EXPECT_EQ(valid, ref.size() + map_pages);
}

TEST(FtlTest, DemandPagingEvictsAndReloadsDeterministically) {
  // Same seed, two independent instances: every stat and every final
  // translation must match bit-for-bit.
  Simulator sim_a, sim_b;
  RamEnv env_a, env_b;
  Ftl a(&sim_a, &env_a, TightConfig());
  Ftl b(&sim_b, &env_b, TightConfig());
  std::map<uint64_t, uint32_t> ref_a, ref_b;
  std::map<uint64_t, uint64_t> final_a, final_b;  // lpn -> ppn
  sim_a.Spawn("churn_a", [&] {
    RunChurn(a, env_a, /*seed=*/1234, /*ops=*/3000, &ref_a);
    for (const auto& [lpn, version] : ref_a) {
      (void)version;
      final_a[lpn] = a.MapLookup(lpn);
    }
  });
  sim_a.Run();
  sim_b.Spawn("churn_b", [&] {
    RunChurn(b, env_b, /*seed=*/1234, /*ops=*/3000, &ref_b);
    for (const auto& [lpn, version] : ref_b) {
      (void)version;
      final_b[lpn] = b.MapLookup(lpn);
    }
  });
  sim_b.Run();

  EXPECT_EQ(ref_a, ref_b);
  EXPECT_EQ(final_a, final_b);
  EXPECT_EQ(a.gc_runs(), b.gc_runs());
  EXPECT_EQ(a.map_loads(), b.map_loads());
  EXPECT_EQ(a.map_writebacks(), b.map_writebacks());
  EXPECT_EQ(a.media_pages_written(), b.media_pages_written());

  // A 2-frame cache over 3 hot segments must have really paged the map.
  EXPECT_GT(a.map_loads(), 0u);
  EXPECT_GT(a.map_writebacks(), 0u);
}

TEST(FtlTest, ContiguousRunsAndTailWaste) {
  Simulator sim;
  RamEnv env;
  FtlConfig cfg = TightConfig();
  Ftl ftl(&sim, &env, cfg);
  sim.Spawn("runs", [&] {
    // A run never spans erase blocks: 20 + 20 from a 32-page block leaves
    // a 12-page tail that must be skipped (charged as invalid), not split.
    const uint64_t r1 = AllocRunWaiting(ftl, 20);
    ASSERT_NE(r1, kFtlUnmapped);
    const uint64_t r2 = AllocRunWaiting(ftl, 20);
    ASSERT_NE(r2, kFtlUnmapped);
    EXPECT_EQ(r1 % cfg.pages_per_block, 0u);
    EXPECT_EQ(r2 % cfg.pages_per_block, 0u);
    EXPECT_NE(r1 / cfg.pages_per_block, r2 / cfg.pages_per_block);

    // An abandoned run (media error path) is reclaimable, not leaked.
    const uint64_t r3 = AllocRunWaiting(ftl, 8);
    ASSERT_NE(r3, kFtlUnmapped);
    ftl.DiscardRun(r3, 8);

    // LPN runs allocate the lowest contiguous window.
    const uint64_t l1 = ftl.AllocLpnRun(4);
    EXPECT_EQ(l1, 0u);
    const uint64_t l2 = ftl.AllocLpnRun(2);
    EXPECT_EQ(l2, 4u);
    ftl.FreeLpn(l1);
    ftl.FreeLpn(l1 + 1);
    ftl.FreeLpn(l1 + 2);
    ftl.FreeLpn(l1 + 3);
    const uint64_t l3 = ftl.AllocLpnRun(3);
    EXPECT_EQ(l3, 0u);  // freed window is reused lowest-first
  });
  sim.Run();
}

// Eight erase blocks of eight pages and one map segment: small enough to
// steer GC by hand.
FtlConfig PinConfig() {
  FtlConfig cfg;
  cfg.flash_pages = 64;
  cfg.pages_per_block = 8;
  cfg.total_lpns = 32;
  cfg.map_cache_segments = 1;
  cfg.gc_free_blocks_low = 2;
  return cfg;
}

// Fills blocks 0-3 with LPNs 0-31, then overwrites five pages of block 0,
// one of block 1, one of block 2 and two of block 3, which fills block 4 and
// opens block 5. The free pool is at its low-water mark, so the next
// allocation runs GC, and its greedy victim is block 0.
void FillToGcThreshold(Ftl& ftl, RamEnv& env) {
  for (uint64_t lpn = 0; lpn < 32; ++lpn) {
    HostWrite(ftl, env, lpn, 1);
  }
  for (uint64_t lpn : {0, 1, 2, 3, 4, 8, 16, 24, 25}) {
    HostWrite(ftl, env, lpn, 2);
  }
}

TEST(FtlTest, PinnedBlockIsNeverAGcVictim) {
  for (const bool pin : {false, true}) {
    Simulator sim;
    RamEnv env;
    Ftl ftl(&sim, &env, PinConfig());
    sim.Spawn("gc", [&] {
      FillToGcThreshold(ftl, env);
      const uint64_t in_block0 = ftl.MapLookup(5);
      ASSERT_EQ(in_block0 / 8, 0u);
      if (pin) {
        ftl.Pin(in_block0);  // e.g. a read of LPN 5 in flight
      }
      HostWrite(ftl, env, 26, 2);
      EXPECT_EQ(ftl.gc_runs(), 1u);
      if (pin) {
        // The next-best victim went instead; block 0 and its pages stay.
        EXPECT_FALSE(ftl.block_is_free(0));
        EXPECT_EQ(ftl.block_valid_pages(0), 3u);
        EXPECT_TRUE(ftl.block_is_free(3));
        EXPECT_EQ(ftl.MapLookup(5), in_block0);
        EXPECT_TRUE(ftl.Unpin(in_block0));
      } else {
        EXPECT_TRUE(ftl.block_is_free(0));
      }
    });
    sim.Run();
  }
}

TEST(FtlTest, AllocRunWaitsWhenEveryCandidateVictimIsPinned) {
  Simulator sim;
  RamEnv env;
  Ftl ftl(&sim, &env, PinConfig());
  sim.Spawn("gc", [&] {
    FillToGcThreshold(ftl, env);
    // Every block with an invalid page (0-3) has an I/O in flight; block 0
    // has two.
    const uint64_t pins[] = {ftl.MapLookup(5), ftl.MapLookup(6), ftl.MapLookup(9),
                             ftl.MapLookup(17), ftl.MapLookup(26)};
    for (uint64_t ppn : pins) {
      ftl.Pin(ppn);
    }
    uint64_t ready_at = 1;
    EXPECT_EQ(ftl.AllocRun(1, &ready_at), kFtlBusy);  // wait, do not report full
    EXPECT_EQ(ready_at, 0u);                          // for a pin, not an erase
    EXPECT_EQ(ftl.gc_runs(), 0u);

    EXPECT_FALSE(ftl.Unpin(pins[0]));  // block 0 is still pinned
    EXPECT_EQ(ftl.AllocRun(1, &ready_at), kFtlBusy);
    EXPECT_TRUE(ftl.Unpin(pins[1]));   // its last pin dropped
    const uint64_t ppn = ftl.AllocRun(1, &ready_at);
    EXPECT_NE(ppn, kFtlBusy);
    EXPECT_NE(ppn, kFtlUnmapped);
    EXPECT_EQ(ftl.gc_runs(), 1u);
    EXPECT_TRUE(ftl.block_is_free(0));
    for (uint64_t pinned : {pins[2], pins[3], pins[4]}) {
      EXPECT_TRUE(ftl.Unpin(pinned));
    }
  });
  sim.Run();
}

// Victims collected back to back do not erase in parallel: the engine
// erases one block at a time, so the n-th erase completes n erase latencies
// after the first was issued.
TEST(FtlTest, EraseEngineErasesOneBlockAtATime) {
  constexpr uint64_t kEraseNs = 2'000'000;
  Simulator sim;
  RamEnv env(kEraseNs);
  Ftl ftl(&sim, &env, TightConfig());
  std::vector<uint64_t> issued_at;
  sim.Spawn("churn", [&] {
    Rng rng(5);
    uint32_t version = 0;
    while (ftl.erases() < 4) {
      const uint64_t before = ftl.erases();
      HostWrite(ftl, env, rng.Uniform(ftl.config().total_lpns), ++version);
      for (uint64_t i = before; i < ftl.erases(); ++i) {
        issued_at.push_back(sim.now());
      }
    }
  });
  sim.Run();
  // Media ops are free here, so the first three victims were collected at
  // time 0; the write that then needed the first of them waited for it.
  ASSERT_EQ(issued_at.size(), 4u);
  EXPECT_EQ(issued_at[2], 0u);
  EXPECT_EQ(issued_at[3], kEraseNs);
  std::vector<uint64_t> ready;
  for (uint32_t b = 0; b < ftl.num_blocks(); ++b) {
    if (ftl.block_ready_at(b) > 0) {
      ready.push_back(ftl.block_ready_at(b));
    }
  }
  std::sort(ready.begin(), ready.end());
  ASSERT_EQ(ready.size(), 4u);
  for (size_t i = 0; i < ready.size(); ++i) {
    EXPECT_EQ(ready[i], (i + 1) * kEraseNs);
  }
}

// A map writeback runs inside a step that cannot be retried, so it must
// not need a block that is still erasing. A caller that waits for
// CommitReadyAt before such a step, as KvSsd::ExecStore does before its
// commit, writes its map back without an erase wait. Media ops are free
// here, so the clock moves only while the caller waits for an erase.
TEST(FtlTest, MapWritebacksNeverWaitForAnErase) {
  Simulator sim;
  RamEnv env(/*erase_latency_ns=*/2'000'000);
  Ftl ftl(&sim, &env, TightConfig());
  sim.Spawn("churn", [&] {
    Rng rng(7);
    for (uint32_t version = 1; version <= 4000; ++version) {
      const uint64_t lpn = rng.Uniform(ftl.config().total_lpns);
      const bool write = rng.Uniform(10) < 8;
      const uint64_t ppn = write ? AllocRunWaiting(ftl, 1) : kFtlUnmapped;
      if (write) {
        ASSERT_NE(ppn, kFtlUnmapped);
        ASSERT_TRUE(env.FlashWrite(ppn, PageFor(lpn, version)));
      }
      for (uint64_t ready; (ready = ftl.CommitReadyAt()) > sim.now();) {
        Simulator::Sleep(ready - sim.now());
      }
      // Installs and unmaps alike may evict a dirty segment: a writeback.
      const uint64_t t = sim.now();
      if (write) {
        ftl.MapInstall(lpn, ppn);
      } else {
        ftl.MapErase(lpn);
      }
      ftl.CheckpointMap();
      ASSERT_EQ(sim.now(), t) << "a map writeback waited for an erase";
    }
  });
  sim.Run();
  EXPECT_GT(ftl.map_writebacks(), 100u);
  EXPECT_GT(ftl.erases(), 10u);
  EXPECT_GT(sim.now(), 0u);  // writers did wait for erases
}

// A single-page overwrite churn of random LPNs with no unmaps fills the
// tight geometry until GC victims hold about two thirds live pages. A pass
// then migrates them, each migrated page's map update evicts a dirty segment
// of the 2-frame cache, and the pass writes more pages than it frees. GC
// must stop there and report the device full, not loop. Programs cost 1 us
// here, so a looping GC runs the clock into the deadline and the test fails
// instead of hanging.
TEST(FtlTest, GcPassThatFreesNothingReportsTheDeviceFull) {
  constexpr uint32_t kWrites = 8000;
  Simulator sim;
  RamEnv env(/*erase_latency_ns=*/0, /*program_ns=*/1000);
  Ftl ftl(&sim, &env, TightConfig());
  std::map<uint64_t, uint32_t> ref;
  uint32_t applied = 0;
  bool full = false;
  bool done = false;
  sim.Spawn("churn", [&] {
    Rng rng(11);
    for (uint32_t version = 1; version <= kWrites; ++version) {
      const uint64_t lpn = rng.Uniform(ftl.config().total_lpns);
      const uint64_t ppn = AllocRunWaiting(ftl, 1);
      if (ppn == kFtlUnmapped) {
        full = true;
        break;
      }
      ASSERT_TRUE(env.FlashWrite(ppn, PageFor(lpn, version)));
      ftl.MapInstall(lpn, ppn);
      ftl.CountHostPage();
      ref[lpn] = version;
      applied++;
    }
    if (full) {
      // Device full stays full: the next allocation runs no second pass.
      const uint64_t runs = ftl.gc_runs();
      uint64_t ready_at = 0;
      EXPECT_EQ(ftl.AllocRun(1, &ready_at), kFtlUnmapped);
      EXPECT_EQ(ftl.gc_runs(), runs);
    }
    VerifyAgainstReference(ftl, env, ref);
    done = true;
  });
  sim.RunUntil(100'000'000);
  ASSERT_TRUE(done) << "GC still looping after " << applied << " writes";
  EXPECT_TRUE(full || applied == kWrites);
  EXPECT_GT(ftl.gc_runs(), 0u);
}

}  // namespace
}  // namespace ccnvme
