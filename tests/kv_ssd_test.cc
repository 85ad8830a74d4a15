// Full KV-SSD stack battery (ctest label: "kvssd"): the NVMe KV command
// set through StorageStack + KvNvmeDriver, crash-image round trips that
// carry FTL state, the ftl.map_data_atomicity monitor, and systematic
// crash exploration of the device-side map+data commit window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/crashtest/crash_explorer.h"
#include "src/crashtest/crash_workloads.h"
#include "src/harness/stack.h"

namespace ccnvme {
namespace {

// Default-geometry KV stack: the block path (file system, ccNVMe) is not
// built on top — the KV path replaces it, so the ccNVMe driver is off.
StackConfig KvConfig() {
  StackConfig cfg;
  cfg.num_queues = 1;
  cfg.enable_ccnvme = false;
  cfg.kv.enabled = true;
  return cfg;
}

// Tight geometry: a 128-block device at 8 pages per block with logical
// space at 75% of physical, a 1-frame map cache over the 2 map segments
// (demand paging once >512 LPNs are live) and an 8-deep shadow ring
// (checkpoint every 8 stores). Multi-page overwrite churn runs real GC.
StackConfig SmallKvConfig() {
  StackConfig cfg = KvConfig();
  cfg.kv.dir_slots = 512;
  cfg.kv.shadow_slots = 8;
  cfg.kv.flash_pages = 1024;
  cfg.kv.pages_per_block = 8;
  cfg.kv.total_lpns = 768;
  cfg.kv.map_cache_segments = 1;
  cfg.kv.gc_free_blocks_low = 3;
  cfg.kv.max_value_bytes = 8 * 4096;  // a value must fit one erase block
  return cfg;
}

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

std::string ValueFor(const std::string& key, uint32_t version, size_t len) {
  std::string v(len, '\0');
  const uint64_t h = Fnv1a(Bytes(key)) ^ (static_cast<uint64_t>(version) * 0x9E3779B97F4A7C15ull);
  for (size_t i = 0; i < len; ++i) {
    v[i] = static_cast<char>('a' + (h + i) % 26);
  }
  return v;
}

std::string AsString(const Buffer& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// Randomized store/delete/retrieve/exist churn against a reference map,
// all through the NVMe KV command set on queue 0.
TEST(KvSsdTest, RandomizedOpsMatchReferenceMap) {
  StorageStack stack(KvConfig());
  ASSERT_TRUE(stack.KvFormat().ok());
  std::map<std::string, std::string> ref;
  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    Rng rng(2026);
    uint32_t version = 0;
    for (int op = 0; op < 300; ++op) {
      char name[16];
      std::snprintf(name, sizeof(name), "key%02llu",
                    static_cast<unsigned long long>(rng.Uniform(40)));
      const std::string key(name);
      const uint64_t action = rng.Uniform(10);
      if (action < 6) {
        const size_t len = 1 + rng.Uniform(3 * 4096);
        const std::string value = ValueFor(key, ++version, len);
        ASSERT_TRUE(kv.Store(0, key, value).ok());
        ref[key] = value;
      } else if (action < 8) {
        const Status st = kv.Delete(0, key);
        if (ref.count(key) > 0) {
          ASSERT_TRUE(st.ok()) << st.message();
          ref.erase(key);
        } else {
          ASSERT_EQ(st.code(), ErrorCode::kNotFound);
        }
      } else if (action < 9) {
        const Result<bool> exist = kv.Exist(0, key);
        ASSERT_TRUE(exist.ok());
        EXPECT_EQ(*exist, ref.count(key) > 0);
      } else {
        const Result<Buffer> got = kv.Retrieve(0, key);
        if (ref.count(key) > 0) {
          ASSERT_TRUE(got.ok()) << got.status().message();
          EXPECT_EQ(AsString(*got), ref[key]);
        } else {
          ASSERT_EQ(got.status().code(), ErrorCode::kNotFound);
        }
      }
    }
    // Final sweep: every reference entry readable byte-for-byte, and the
    // cursor scan returns exactly the reference key set.
    for (const auto& [key, value] : ref) {
      const Result<Buffer> got = kv.Retrieve(0, key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().message();
      EXPECT_EQ(AsString(*got), value) << key;
    }
    Result<std::vector<std::string>> listed = kv.ListKeys(0);
    ASSERT_TRUE(listed.ok());
    std::set<std::string> listed_set(listed->begin(), listed->end());
    std::set<std::string> ref_set;
    for (const auto& [key, value] : ref) {
      (void)value;
      ref_set.insert(key);
    }
    EXPECT_EQ(listed_set, ref_set);
  });
  EXPECT_EQ(stack.kv_ssd()->live_keys(), ref.size());
  EXPECT_GT(stack.kv_ssd()->stores(), 0u);
}

// Multi-page overwrite churn on the tight geometry: GC must run, migrate
// live pages and never lose one; the shadow ring must wrap into map
// checkpoints; and every surviving value must still read back exactly.
TEST(KvSsdTest, GcRunsUnderChurnAndNoValueIsLost) {
  StorageStack stack(SmallKvConfig());
  ASSERT_TRUE(stack.KvFormat().ok());
  std::map<std::string, std::string> ref;
  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    Rng rng(4242);
    uint32_t version = 0;
    for (int op = 0; op < 1200; ++op) {
      // Random key order keeps victim blocks mixed-lifetime, so GC has to
      // migrate live pages instead of erasing fully-dead blocks.
      const std::string key = "hot" + std::to_string(rng.Uniform(180));
      const std::string value = ValueFor(key, ++version, 2 * 4096 + 100);
      ASSERT_TRUE(kv.Store(0, key, value).ok()) << "op " << op;
      ref[key] = value;
    }
    for (const auto& [key, value] : ref) {
      const Result<Buffer> got = kv.Retrieve(0, key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(AsString(*got), value) << key;
    }
  });
  const Ftl& ftl = stack.kv_ssd()->ftl();
  EXPECT_GT(ftl.gc_runs(), 0u);
  EXPECT_GT(ftl.gc_migrated_pages(), 0u);
  EXPECT_GT(ftl.waf(), 1.0);
  // 1200 stores through an 8-deep shadow ring: the checkpoint horizon moved.
  EXPECT_GT(stack.kv_ssd()->checkpoint_seq(), 0u);
  // The split keyspace over a 1-frame map cache really paged the map.
  EXPECT_GT(ftl.map_loads(), 0u);
  EXPECT_GT(ftl.map_writebacks(), 0u);
  stack.Run([&] { ASSERT_TRUE(stack.kv_ssd()->CheckConsistency().ok()); });
}

struct RunStats {
  uint64_t now_ns = 0;
  uint64_t gc_runs = 0;
  uint64_t map_loads = 0;
  uint64_t media_pages = 0;
  uint64_t last_seq = 0;
  std::map<std::string, std::string> values;
};

RunStats RunSeededWorkload(const StackConfig& cfg) {
  StorageStack stack(cfg);
  CCNVME_CHECK(stack.KvFormat().ok());
  RunStats out;
  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    Rng rng(777);
    uint32_t version = 0;
    for (int op = 0; op < 200; ++op) {
      const std::string key = "d" + std::to_string(rng.Uniform(24));
      if (rng.Uniform(5) < 4) {
        const std::string value = ValueFor(key, ++version, 1 + rng.Uniform(2 * 4096));
        CCNVME_CHECK(kv.Store(0, key, value).ok());
      } else {
        (void)kv.Delete(0, key);  // NotFound is fine; the pattern is seeded
      }
    }
    Result<std::vector<std::string>> keys = kv.ListKeys(0);
    CCNVME_CHECK(keys.ok());
    for (const std::string& key : *keys) {
      Result<Buffer> got = kv.Retrieve(0, key);
      CCNVME_CHECK(got.ok());
      out.values[key] = AsString(*got);
    }
  });
  out.now_ns = stack.sim().now();
  out.gc_runs = stack.kv_ssd()->ftl().gc_runs();
  out.map_loads = stack.kv_ssd()->ftl().map_loads();
  out.media_pages = stack.kv_ssd()->ftl().media_pages_written();
  out.last_seq = stack.kv_ssd()->last_seq();
  return out;
}

// Two independent stacks, same seed: virtual time, FTL stats and the full
// final key/value state must match bit-for-bit.
TEST(KvSsdTest, DeterministicAcrossRuns) {
  const RunStats a = RunSeededWorkload(SmallKvConfig());
  const RunStats b = RunSeededWorkload(SmallKvConfig());
  EXPECT_EQ(a.now_ns, b.now_ns);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.map_loads, b.map_loads);
  EXPECT_EQ(a.media_pages, b.media_pages);
  EXPECT_EQ(a.last_seq, b.last_seq);
  EXPECT_EQ(a.values, b.values);
  EXPECT_FALSE(a.values.empty());
}

// CaptureCrashImage -> boot a new stack from the image -> Attach: the FTL
// state (GTD, checkpointed map segments, shadow ring) rides the image, the
// directory walk rebuilds liveness, and every committed value survives.
TEST(KvSsdTest, CrashImageRoundTripCarriesFtlState) {
  const StackConfig cfg = SmallKvConfig();
  std::map<std::string, std::string> ref;
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.KvFormat().ok());
    stack.Run([&] {
      KvNvmeDriver& kv = *stack.kv_driver();
      uint32_t version = 0;
      for (int k = 0; k < 20; ++k) {
        const std::string key = "rt" + std::to_string(k);
        const std::string value = ValueFor(key, ++version, 700 + k * 800);
        ASSERT_TRUE(kv.Store(0, key, value).ok());
        ref[key] = value;
      }
      // Overwrites and deletes so recovery sees stale flash runs + tombstones.
      for (int k = 0; k < 6; ++k) {
        const std::string key = "rt" + std::to_string(k);
        const std::string value = ValueFor(key, ++version, 3 * 4096 + k);
        ASSERT_TRUE(kv.Store(0, key, value).ok());
        ref[key] = value;
      }
      for (int k = 6; k < 9; ++k) {
        const std::string key = "rt" + std::to_string(k);
        ASSERT_TRUE(kv.Delete(0, key).ok());
        ref.erase(key);
      }
    });
    image = stack.CaptureCrashImage();
  }

  StorageStack stack(cfg, image);
  ASSERT_TRUE(stack.KvAttach().ok());
  stack.Run([&] {
    ASSERT_TRUE(stack.kv_ssd()->CheckConsistency().ok());
    KvNvmeDriver& kv = *stack.kv_driver();
    for (const auto& [key, value] : ref) {
      const Result<Buffer> got = kv.Retrieve(0, key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().message();
      EXPECT_EQ(AsString(*got), value) << key;
    }
    for (int k = 6; k < 9; ++k) {
      const Result<Buffer> got = kv.Retrieve(0, "rt" + std::to_string(k));
      EXPECT_EQ(got.status().code(), ErrorCode::kNotFound);
    }
    // The attached device keeps working: post-recovery stores + reads.
    ASSERT_TRUE(kv.Store(0, "post", "recovered-and-writable").ok());
    const Result<Buffer> got = kv.Retrieve(0, "post");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(AsString(*got), "recovered-and-writable");
  });
  EXPECT_EQ(stack.kv_ssd()->live_keys(), ref.size() + 1);
}

// The injected bug (commit the meta word without arming the shadow) fires
// the ftl.map_data_atomicity monitor on every store; a clean stack is quiet.
TEST(KvSsdTest, MonitorCatchesSkippedShadowCommit) {
  StackConfig cfg = KvConfig();
  cfg.kv.test_skip_ftl_shadow_commit = true;
  StorageStack stack(cfg);
  Metrics& metrics = stack.EnableMetrics();
  ASSERT_TRUE(stack.KvFormat().ok());
  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(kv.Store(0, "bug" + std::to_string(k), "payload").ok());
    }
  });
  EXPECT_EQ(metrics.monitors().violations(MonitorId::kFtlMapDataAtomicity), 3u);

  StorageStack clean(KvConfig());
  Metrics& clean_metrics = clean.EnableMetrics();
  ASSERT_TRUE(clean.KvFormat().ok());
  clean.Run([&] {
    ASSERT_TRUE(clean.kv_driver()->Store(0, "ok", "payload").ok());
  });
  EXPECT_EQ(clean_metrics.monitors().violations(MonitorId::kFtlMapDataAtomicity), 0u);
}

// --- Packed sub-page values: staging frames in the PMR ----------------------

// Four 1 KB values fill a staging frame; the Store that finds it full seals
// it and flushes it as one page. 13 Stores: three flushed frames, and the
// 13th value staged.
TEST(KvPackingTest, FourOneKbStoresCostOneHostPage) {
  StorageStack stack(KvConfig());
  ASSERT_TRUE(stack.KvFormat().ok());
  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    for (int k = 0; k < 13; ++k) {
      const std::string key = "k" + std::to_string(k);
      ASSERT_TRUE(kv.Store(0, key, ValueFor(key, 1, 1024)).ok());
    }
    EXPECT_EQ(stack.kv_ssd()->ftl().host_pages_written(), 3u);
    for (int k = 0; k < 13; ++k) {
      const std::string key = "k" + std::to_string(k);
      const Result<Buffer> got = kv.Retrieve(0, key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(AsString(*got), ValueFor(key, 1, 1024)) << key;
    }
  });
}

// A value still staged in the PMR at the cut reads back after KvAttach, and
// the restored frame keeps packing from where it stopped.
TEST(KvPackingTest, StagedValueSurvivesACrashImageRoundTrip) {
  const StackConfig cfg = KvConfig();
  std::map<std::string, std::string> ref;
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.KvFormat().ok());
    stack.Run([&] {
      KvNvmeDriver& kv = *stack.kv_driver();
      for (int k = 0; k < 4; ++k) {
        const std::string key = "f" + std::to_string(k);
        ref[key] = ValueFor(key, 1, 1024);
        ASSERT_TRUE(kv.Store(0, key, ref[key]).ok());
      }
      // Finds the first frame full: flushes it and stages itself.
      ref["staged"] = ValueFor("staged", 1, 700);
      ASSERT_TRUE(kv.Store(0, "staged", ref["staged"]).ok());
    });
    EXPECT_EQ(stack.kv_ssd()->ftl().host_pages_written(), 1u);
    image = stack.CaptureCrashImage();
  }

  StorageStack stack(cfg, image);
  ASSERT_TRUE(stack.KvAttach().ok());
  stack.Run([&] {
    ASSERT_TRUE(stack.kv_ssd()->CheckConsistency().ok());
    KvNvmeDriver& kv = *stack.kv_driver();
    for (const auto& [key, value] : ref) {
      const Result<Buffer> got = kv.Retrieve(0, key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().message();
      EXPECT_EQ(AsString(*got), value) << key;
    }
    // 704 staged bytes + 3 x 1024 still fit the frame; the fourth does not.
    for (int k = 0; k < 4; ++k) {
      const std::string key = "post" + std::to_string(k);
      ref[key] = ValueFor(key, 1, 1024);
      ASSERT_TRUE(kv.Store(0, key, ref[key]).ok());
      EXPECT_EQ(stack.kv_ssd()->ftl().host_pages_written(), k < 3 ? 0u : 1u) << key;
    }
    for (const auto& [key, value] : ref) {
      const Result<Buffer> got = kv.Retrieve(0, key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(AsString(*got), value) << key;
    }
  });
}

// Four values share one flushed page and its LPN: overwriting or deleting
// three of them leaves the page live, and the last one's delete frees both.
TEST(KvPackingTest, PackedPageIsReleasedWithItsLastValue) {
  StorageStack stack(KvConfig());
  ASSERT_TRUE(stack.KvFormat().ok());
  const Ftl& ftl = stack.kv_ssd()->ftl();
  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    for (const char* key : {"a", "b", "c", "d", "e"}) {
      ASSERT_TRUE(kv.Store(0, key, ValueFor(key, 1, 1024)).ok());
    }
    // a-d share the first page programmed (block 0); e is staged.
    ASSERT_EQ(ftl.host_pages_written(), 1u);
    EXPECT_EQ(ftl.block_valid_pages(0), 1u);
    const uint64_t free_lpns = ftl.free_lpns();
    ASSERT_TRUE(kv.Store(0, "a", ValueFor("a", 2, 1024)).ok());
    ASSERT_TRUE(kv.Delete(0, "b").ok());
    ASSERT_TRUE(kv.Store(0, "c", ValueFor("c", 2, 1024)).ok());
    EXPECT_EQ(ftl.block_valid_pages(0), 1u);
    EXPECT_EQ(ftl.free_lpns(), free_lpns);
    const Result<Buffer> got = kv.Retrieve(0, "d");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(AsString(*got), ValueFor("d", 1, 1024));

    ASSERT_TRUE(kv.Delete(0, "d").ok());
    EXPECT_EQ(ftl.block_valid_pages(0), 0u);
    EXPECT_EQ(ftl.free_lpns(), free_lpns + 1);
    for (const char* key : {"a", "c"}) {
      const Result<Buffer> value = kv.Retrieve(0, key);
      ASSERT_TRUE(value.ok()) << key;
      EXPECT_EQ(AsString(*value), ValueFor(key, 2, 1024)) << key;
    }
    ASSERT_TRUE(stack.kv_ssd()->CheckConsistency().ok());
  });
}

// Stores |key| as a 1000-byte value (staged in frame 0) and runs |before|,
// captures the image, lets |corrupt| edit its PMR and returns what
// CheckConsistency says after KvAttach; |after| then runs on the attached
// stack.
Status AttachCorruptedPackedImage(
    const std::string& key,
    const std::function<void(const KvPmrLayout&, uint32_t slot, Buffer& pmr)>& corrupt,
    const std::function<void(KvNvmeDriver&)>& before = {},
    const std::function<void(KvNvmeDriver&)>& after = {}) {
  const StackConfig cfg = KvConfig();
  CrashImage image;
  {
    StorageStack stack(cfg);
    CCNVME_CHECK(stack.KvFormat().ok());
    stack.Run([&] {
      CCNVME_CHECK(stack.kv_driver()->Store(0, key, std::string(1000, 'v')).ok());
      if (before) {
        before(*stack.kv_driver());
      }
    });
    image = stack.CaptureCrashImage();
  }
  const KvPmrLayout layout = KvSuperblock::ForConfig(cfg.kv).Layout(image.pmr().size());
  // The first key in an empty directory lands on its home slot.
  Buffer pmr(image.pmr().size());
  image.pmr().Read(0, pmr);
  corrupt(layout, static_cast<uint32_t>(Fnv1a(Bytes(key)) % cfg.kv.dir_slots), pmr);
  image.pmr() = PageImage(pmr);
  StorageStack stack(cfg, image);
  const Status attach = stack.KvAttach();
  if (!attach.ok()) {
    return attach;
  }
  Status consistent;
  stack.Run([&] {
    consistent = stack.kv_ssd()->CheckConsistency();
    if (after) {
      after(*stack.kv_driver());
    }
  });
  return consistent;
}

// A stack booted from a KV image attaches and stores into PMR pages and
// media blocks of its own: the image keeps its bytes, so it can boot again.
TEST(KvImageSharingTest, AttachAndStoresLeaveTheImageUnchanged) {
  const StackConfig cfg = KvConfig();
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.KvFormat().ok());
    stack.Run([&] {
      ASSERT_TRUE(stack.kv_driver()->Store(0, "packed", std::string(1000, 'p')).ok());
      ASSERT_TRUE(stack.kv_driver()->Store(0, "paged", std::string(8192, 'q')).ok());
    });
    image = stack.CaptureCrashImage();
  }
  auto pmr_bytes = [](const PageImage& pmr) {
    Buffer bytes(pmr.size());
    pmr.Read(0, bytes);
    return bytes;
  };
  const Buffer captured = pmr_bytes(image.pmr());
  for (int boot = 0; boot < 2; ++boot) {
    StorageStack booted(cfg, image);
    ASSERT_TRUE(booted.KvAttach().ok());
    booted.Run([&] {
      ASSERT_TRUE(booted.kv_driver()->Store(0, "packed", std::string(900, 'r')).ok());
      ASSERT_TRUE(booted.kv_driver()->Store(0, "new", std::string(700, 's')).ok());
      ASSERT_TRUE(booted.kv_driver()->Delete(0, "paged").ok());
    });
    EXPECT_NE(pmr_bytes(booted.controller().pmr().image()), captured);
    EXPECT_TRUE(pmr_bytes(image.pmr()) == captured) << "boot " << boot;
  }
  StorageStack again(cfg, image);
  ASSERT_TRUE(again.KvAttach().ok());
  again.Run([&] {
    const Result<Buffer> packed = again.kv_driver()->Retrieve(0, "packed");
    ASSERT_TRUE(packed.ok());
    EXPECT_EQ(AsString(*packed), std::string(1000, 'p'));
    EXPECT_TRUE(again.kv_driver()->Retrieve(0, "paged").ok());
    EXPECT_FALSE(again.kv_driver()->Retrieve(0, "new").ok());
  });
}

// A packed entry whose offset plus length runs past its page is reported,
// not read, and still holds its share of the page: deleting it leaves the
// value it shares the page with readable.
TEST(KvPackingTest, PackedEntryRunningPastItsPageIsReported) {
  const Status st = AttachCorruptedPackedImage(
      "overrun",
      [](const KvPmrLayout& layout, uint32_t slot, Buffer& pmr) {
        const size_t at = layout.dir_off + static_cast<size_t>(slot) * kKvDirSlotBytes + 24;
        const uint64_t meta = GetU64(pmr, at);
        ASSERT_TRUE(KvSsd::MetaPacked(meta));
        // Offset 3200 + 1000 bytes ends past 4096.
        PutU64(pmr, at, KvSsd::PackMeta(KvSsd::MetaLpn(meta), KvSsd::MetaValueLen(meta),
                                        KvSsd::MetaKeyLen(meta), 3200));
      },
      [](KvNvmeDriver& kv) {
        // "sibling", "f1" and "f2" join "overrun" in frame 0; "next" flushes
        // it. Then only "overrun" and "sibling" keep the page.
        for (const char* key : {"sibling", "f1", "f2", "next"}) {
          CCNVME_CHECK(kv.Store(0, key, ValueFor(key, 1, 1000)).ok());
        }
        for (const char* key : {"f1", "f2"}) {
          CCNVME_CHECK(kv.Delete(0, key).ok());
        }
      },
      [](KvNvmeDriver& kv) {
        EXPECT_FALSE(kv.Retrieve(0, "overrun").ok());
        ASSERT_TRUE(kv.Delete(0, "overrun").ok());
        const Result<Buffer> got = kv.Retrieve(0, "sibling");
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(AsString(*got), ValueFor("sibling", 1, 1000));
      });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("runs past its page"), std::string::npos) << st.message();
}

// A staging-frame header naming an LPN beyond the logical space is
// reported; the entry it staged then covers an unmapped LPN.
TEST(KvPackingTest, FrameHeaderBeyondTheLogicalSpaceIsReported) {
  const Status st = AttachCorruptedPackedImage(
      "header", [](const KvPmrLayout& layout, uint32_t slot, Buffer& pmr) {
        (void)slot;
        const uint64_t header = GetU64(pmr, layout.FrameHeaderOff(0));
        ASSERT_NE(header & KvSsd::kFrameUsed, 0u);
        PutU64(pmr, layout.FrameHeaderOff(0), KvSsd::kFrameUsed | KvConfig().kv.total_lpns);
      });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("staging frame 0 names lpn"), std::string::npos) << st.message();
}

// --- On-PMR record decoders ---------------------------------------------------

TEST(KvRecordTest, SuperblockRoundTripsAndRefusesATornGeometry) {
  KvSuperblock sb = KvSuperblock::ForConfig(SmallKvConfig().kv);
  sb.checkpoint_seq = 77;
  sb.host_pages = 5;
  sb.media_pages = 9;
  sb.gc_runs = 2;
  sb.gc_migrated_pages = 3;
  Buffer raw(kKvSuperblockBytes);
  sb.Serialize(raw);
  const Result<KvSuperblock> back = KvSuperblock::Parse(raw);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->checkpoint_seq, 77u);
  EXPECT_EQ(back->host_pages, 5u);
  EXPECT_EQ(back->media_pages, 9u);
  EXPECT_EQ(back->gc_runs, 2u);
  EXPECT_EQ(back->gc_migrated_pages, 3u);
  EXPECT_EQ(back->dir_slots, 512u);
  EXPECT_EQ(back->shadow_slots, 8u);
  EXPECT_EQ(back->flash_pages, 1024u);
  EXPECT_EQ(back->total_lpns, 768u);
  EXPECT_EQ(back->pages_per_block, 8u);
  EXPECT_EQ(back->map_entries_per_segment, 512u);
  EXPECT_EQ(back->map_cache_segments, 1u);
  EXPECT_EQ(back->gc_free_blocks_low, 3u);
  EXPECT_EQ(back->GeometryHash(), sb.GeometryHash());
  EXPECT_EQ(back->MaxValueBytes(), SmallKvConfig().kv.max_value_bytes);

  // Any geometry byte torn away from the stored hash, or no superblock at
  // all, is refused.
  for (size_t at : {size_t{57}, size_t{65}, size_t{73}, size_t{81}}) {
    Buffer torn = raw;
    torn[at] ^= 0x01;
    EXPECT_FALSE(KvSuperblock::Parse(torn).ok()) << "byte " << at;
  }
  EXPECT_FALSE(KvSuperblock::Parse(Buffer(kKvSuperblockBytes, 0)).ok());
}

TEST(KvRecordTest, ShadowEntryRoundTripsAndRefusesATornEntry) {
  const KvShadowEntry sh{42, 300, 3, 901, 17};
  Buffer raw(kKvShadowBytes);
  sh.Serialize(raw);
  const Result<KvShadowEntry> back = KvShadowEntry::Parse(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->seq, 42u);
  EXPECT_EQ(back->lpn, 300u);
  EXPECT_EQ(back->npages, 3u);
  EXPECT_EQ(back->ppn, 901u);
  EXPECT_EQ(back->slot, 17u);
  for (size_t at = 0; at < kKvShadowBytes; at += 5) {
    Buffer torn = raw;
    torn[at] ^= 0x10;
    EXPECT_FALSE(KvShadowEntry::Parse(torn).ok()) << "byte " << at;
  }
  EXPECT_FALSE(KvShadowEntry::Parse(Buffer(kKvShadowBytes, 0)).ok());  // never armed
}

TEST(KvRecordTest, DirEntryRoundTrips) {
  KvDirEntry e;
  const std::string key = "round-trip";
  std::copy(key.begin(), key.end(), e.key.begin());
  e.meta = KvSsd::PackMeta(12, 1000, static_cast<uint32_t>(key.size()), 2048);
  Buffer raw(kKvDirSlotBytes);
  e.Serialize(raw);
  const KvDirEntry back = KvDirEntry::Parse(raw);
  EXPECT_EQ(back.key, e.key);
  EXPECT_EQ(back.meta, e.meta);
  EXPECT_EQ(KvSsd::MetaLpn(back.meta), 12u);
  EXPECT_EQ(KvSsd::MetaValueLen(back.meta), 1000u);
  EXPECT_EQ(KvSsd::MetaOffset(back.meta), 2048u);
}

// An FTL with no flash behind it: every map segment starts unmapped.
class NoFlashEnv : public FtlEnv {
 public:
  void PersistGtd(uint32_t, uint64_t) override {}
  uint64_t LoadGtd(uint32_t) override { return kFtlUnmapped; }
  bool FlashWrite(uint64_t, const Buffer&) override { return false; }
  bool FlashRead(uint64_t, Buffer*) override { return false; }
  uint64_t EraseLatencyNs() const override { return 0; }
  void OnMapCheckpointed() override {}
};

// The shadow chain replays the consecutive run right above the checkpoint:
// a checksum-bad entry is skipped, and the replay stops at the sequence
// gap it (or a missing entry) leaves.
TEST(KvShadowChainTest, StopsAtASequenceGapAndSkipsATornEntry) {
  const KvSsdConfig config = SmallKvConfig().kv;  // an 8-slot ring
  KvSuperblock sb = KvSuperblock::ForConfig(config);
  sb.checkpoint_seq = 10;
  PageImage pmr(2 << 20);
  const KvPmrLayout layout = sb.Layout(pmr.size());
  auto arm = [&](uint64_t seq, uint64_t lpn) {
    Buffer rec(kKvShadowBytes);
    KvShadowEntry{seq, lpn, 1, static_cast<uint32_t>(lpn + 100), 0}.Serialize(rec);
    pmr.Write(layout.ShadowOff(static_cast<uint32_t>(seq % sb.shadow_slots)), rec);
  };
  Simulator sim;
  NoFlashEnv env;
  auto replay = [&](std::vector<uint64_t>* mapped) {
    Ftl ftl(&sim, &env, sb.ToFtlConfig());
    ftl.BeginAttach();
    ftl.AttachLoadGtd();
    const KvShadowChain chain = ReplayShadowChain(pmr, layout, sb, ftl);
    for (uint64_t lpn = 1; lpn <= 4; ++lpn) {
      mapped->push_back(ftl.MapLookup(lpn));
    }
    return chain;
  };
  arm(9, 9);  // at or below the checkpoint: already in the flash map
  arm(11, 1);
  arm(12, 2);
  arm(13, 3);
  arm(14, 4);
  // Seq 13's store tore: its checksum fails, so 14 is beyond a gap.
  Buffer torn(kKvShadowBytes);
  pmr.Read(layout.ShadowOff(13 % sb.shadow_slots), torn);
  torn[9] ^= 0x01;
  pmr.Write(layout.ShadowOff(13 % sb.shadow_slots), torn);
  std::vector<uint64_t> mapped;
  KvShadowChain chain = replay(&mapped);
  EXPECT_EQ(mapped, (std::vector<uint64_t>{101, 102, kFtlUnmapped, kFtlUnmapped}));
  EXPECT_EQ(chain.entries.size(), 3u);  // 11, 12 and 14
  EXPECT_EQ(chain.replayed, 2u);
  EXPECT_EQ(chain.last_seq, 12u);
  EXPECT_EQ(chain.torn, 1u);

  // Re-arming 13 closes the gap: the chain runs through 14.
  arm(13, 3);
  mapped.clear();
  chain = replay(&mapped);
  EXPECT_EQ(mapped, (std::vector<uint64_t>{101, 102, 103, 104}));
  EXPECT_EQ(chain.replayed, 4u);
  EXPECT_EQ(chain.last_seq, 14u);
  EXPECT_EQ(chain.torn, 0u);
}

// --- Concurrent commands: background erases, metadata-only device lock ----

// Two queues over 16 erase blocks of 8 pages: overwriting one key runs GC
// every block's worth of stores, and the victims hold little live data.
StackConfig ConcurrentKvConfig() {
  StackConfig cfg = KvConfig();
  cfg.num_queues = 2;
  cfg.kv.dir_slots = 64;
  cfg.kv.shadow_slots = 16;
  cfg.kv.flash_pages = 128;
  cfg.kv.pages_per_block = 8;
  cfg.kv.total_lpns = 64;
  cfg.kv.map_cache_segments = 1;
  cfg.kv.gc_free_blocks_low = 2;
  cfg.kv.max_value_bytes = 8 * 4096;  // a value must fit one erase block
  return cfg;
}

struct Interval {
  uint64_t begin = 0;
  uint64_t end = 0;
};

// A Retrieve issued while a GC victim's erase is in flight takes about one
// media read: the erase runs on the FTL's erase engine, not under the device
// lock, and the writer that needs the erased block waits with the lock
// released. (Were the erase run under the lock, such a Retrieve would wait
// it out: >= 2 ms.) Two cold values cover both read paths: "cold" fills its
// own page, and "small" is packed at offset 1024 of a page the fifth 1 KB
// Store flushed. The writer's values fill a page, so each of its Stores
// programs one.
TEST(KvSsdConcurrencyTest, RetrieveDuringAnEraseTakesAboutOneMediaRead) {
  const StackConfig cfg = ConcurrentKvConfig();
  const std::map<std::string, std::string> cold = {{"cold", ValueFor("cold", 0, 4096)},
                                                   {"small", ValueFor("small", 0, 1024)}};
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.KvFormat().ok());
  std::map<std::string, uint64_t> idle_get_ns;
  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    ASSERT_TRUE(kv.Store(0, "cold", cold.at("cold")).ok());
    for (const std::string key : {"pad0", "small", "pad1", "pad2", "pad3"}) {
      ASSERT_TRUE(
          kv.Store(0, key, key == "small" ? cold.at(key) : ValueFor(key, 0, 1024)).ok());
    }
    ASSERT_EQ(stack.kv_ssd()->ftl().host_pages_written(), 2u);  // "small" is on flash
    for (const auto& [key, value] : cold) {
      const uint64_t t0 = stack.sim().now();
      ASSERT_TRUE(kv.Retrieve(1, key).ok());
      idle_get_ns[key] = stack.sim().now() - t0;
    }
  });

  const Ftl& ftl = stack.kv_ssd()->ftl();
  std::vector<Interval> gc_stores;  // Stores that handed a GC victim over
  std::map<std::string, std::vector<Interval>> gets;
  bool writer_done = false;
  stack.Spawn("writer", [&] {
    for (uint32_t i = 0; i < 160; ++i) {
      const uint64_t runs = ftl.gc_runs();
      const uint64_t begin = stack.sim().now();
      CCNVME_CHECK(stack.kv_driver()->Store(0, "hot", ValueFor("hot", i, 4096)).ok());
      if (ftl.gc_runs() > runs) {
        gc_stores.push_back({begin, stack.sim().now()});
      }
    }
    writer_done = true;
  }, 0);
  stack.Spawn("reader", [&] {
    while (!writer_done) {
      for (const auto& [key, value] : cold) {
        const uint64_t begin = stack.sim().now();
        const Result<Buffer> got = stack.kv_driver()->Retrieve(1, key);
        CCNVME_CHECK(got.ok() && AsString(*got) == value);
        gets[key].push_back({begin, stack.sim().now()});
      }
      Simulator::Sleep(20'000);
    }
  }, 1);
  stack.sim().Run();
  ASSERT_GT(gc_stores.size(), 2u);
  EXPECT_GT(ftl.erases(), 2u);

  // The erase a GC Store handed over started inside that Store and runs
  // for erase_latency_ns, so it is still in flight from the Store's return
  // until erase_latency_ns after the Store began.
  const uint64_t erase_ns = cfg.kv.erase_latency_ns;
  for (const auto& [key, intervals] : gets) {
    size_t during_erase = 0;
    uint64_t slowest_get_ns = 0;
    for (const Interval& get : intervals) {
      slowest_get_ns = std::max(slowest_get_ns, get.end - get.begin);
      during_erase += std::any_of(gc_stores.begin(), gc_stores.end(), [&](const Interval& s) {
        return get.begin >= s.end && get.begin < s.begin + erase_ns;
      });
    }
    EXPECT_GT(during_erase, 10u) << key;
    EXPECT_LT(slowest_get_ns, 2 * idle_get_ns[key]) << key << ": a Retrieve waited behind an erase";
  }
}

// Two keys whose home slot in a |dir_slots| directory is the same (and not
// the last slot, so the chain does not wrap): the second inserted probes
// past the first.
std::pair<std::string, std::string> KeysSharingAProbeChain(uint32_t dir_slots) {
  auto home = [&](const std::string& key) { return Fnv1a(Bytes(key)) % dir_slots; };
  std::string first = "chain0";
  for (int i = 1; home(first) == dir_slots - 1; ++i) {
    first = "chain0." + std::to_string(i);
  }
  for (int i = 1;; ++i) {
    std::string second = "chain" + std::to_string(i);
    if (home(second) == home(first)) {
      return {first, second};
    }
  }
}

// Store A (eight pages) is still programming when Store B, a one-page value
// of a different key with the same home slot, runs start to finish. Both
// probed the home slot as their insert slot; B commits there, and A's
// second probe, after its program, moves it one slot along the chain.
TEST(KvSsdConcurrencyTest, StoresSharingAProbeChainCommitToDistinctSlots) {
  const StackConfig cfg = ConcurrentKvConfig();
  const auto [key_a, key_b] = KeysSharingAProbeChain(cfg.kv.dir_slots);
  const std::string value_a = ValueFor(key_a, 1, 8 * 4096);
  const std::string value_b = ValueFor(key_b, 2, 100);
  StorageStack stack(cfg);
  ASSERT_TRUE(stack.KvFormat().ok());
  uint64_t a_done = 0;
  uint64_t b_done = 0;
  stack.Spawn("store_a", [&] {
    CCNVME_CHECK(stack.kv_driver()->Store(0, key_a, value_a).ok());
    a_done = stack.sim().now();
  }, 0);
  stack.Spawn("store_b", [&] {
    Simulator::Sleep(30'000);
    // A has taken its runs and not yet committed: it is in its program step.
    EXPECT_EQ(stack.kv_ssd()->ftl().free_lpns(), cfg.kv.total_lpns - 8);
    EXPECT_EQ(stack.kv_ssd()->stores(), 0u);
    CCNVME_CHECK(stack.kv_driver()->Store(1, key_b, value_b).ok());
    b_done = stack.sim().now();
  }, 1);
  stack.sim().Run();
  EXPECT_LT(b_done, a_done) << "B waited for A's program";

  stack.Run([&] {
    KvNvmeDriver& kv = *stack.kv_driver();
    const Result<Buffer> got_a = kv.Retrieve(0, key_a);
    ASSERT_TRUE(got_a.ok()) << got_a.status().message();
    EXPECT_EQ(AsString(*got_a), value_a);
    const Result<Buffer> got_b = kv.Retrieve(0, key_b);
    ASSERT_TRUE(got_b.ok()) << got_b.status().message();
    EXPECT_EQ(AsString(*got_b), value_b);
    // ListKeys walks the directory in slot order: B holds the home slot and
    // A the next one.
    const Result<std::vector<std::string>> listed = kv.ListKeys(0);
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(*listed, (std::vector<std::string>{key_b, key_a}));
    ASSERT_TRUE(stack.kv_ssd()->CheckConsistency().ok());
  });
  EXPECT_EQ(stack.kv_ssd()->live_keys(), 2u);
}

// --- Systematic crash exploration of the KV commit window -----------------

size_t TestThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw < 4 ? 4 : hw;
}

ExplorerOptions TestOptions() {
  ExplorerOptions opt;
  opt.seed = 42;
  opt.threads = TestThreads();
  return opt;
}

void ExpectAllPassed(const ExplorerReport& report) {
  EXPECT_TRUE(report.AllPassed()) << report.Summary();
  EXPECT_GT(report.boundaries, 2u);
  EXPECT_GT(report.states_checked, report.boundaries);
}

// Geometry for exploration: small enough that each reconstructed crash
// state boots and attaches quickly, roomy enough for the workload values.
StackConfig ExplorerKvConfig() {
  StackConfig cfg = KvConfig();
  cfg.kv.dir_slots = 64;
  cfg.kv.shadow_slots = 16;
  cfg.kv.flash_pages = 1024;
  cfg.kv.pages_per_block = 16;
  cfg.kv.total_lpns = 768;
  cfg.kv.map_cache_segments = 2;
  return cfg;
}

// Even tighter: 6 erase blocks of 8 pages, so kv_overwrite_churn's hot-key
// rounds run GC mid-recording and boundaries land inside migrate/erase.
StackConfig ExplorerGcKvConfig() {
  StackConfig cfg = KvConfig();
  cfg.kv.dir_slots = 32;
  cfg.kv.shadow_slots = 4;
  cfg.kv.flash_pages = 48;
  cfg.kv.pages_per_block = 8;
  cfg.kv.total_lpns = 32;
  cfg.kv.map_cache_segments = 1;
  cfg.kv.gc_free_blocks_low = 2;
  cfg.kv.max_value_bytes = 8 * 4096;  // a value must fit one erase block
  return cfg;
}

// Every boundary of the stores/overwrite/delete workload must recover: a
// cut before a COMMIT fence shows the old value, after it the new one.
TEST(KvExplorerTest, PutGetAllBoundariesRecover) {
  ExpectAllPassed(ExploreWorkload(ExplorerKvConfig(), "kv_put_get", TestOptions()));
}

// Same guarantee while GC migrates live pages between the cut points.
TEST(KvExplorerTest, OverwriteChurnWithGcAllBoundariesRecover) {
  StackConfig cfg = ExplorerGcKvConfig();
  ExplorerReport report = ExploreWorkload(cfg, "kv_overwrite_churn", TestOptions());
  ExpectAllPassed(report);
  // The geometry is tight enough that the recording itself ran GC — the
  // explored boundaries include cuts inside migrate/checkpoint/erase.
  StorageStack probe(cfg);
  ASSERT_TRUE(probe.KvFormat().ok());
}

// Two queues over the same six erase blocks, for kv_concurrent_churn.
StackConfig ExplorerConcurrentKvConfig() {
  StackConfig cfg = ExplorerGcKvConfig();
  cfg.num_queues = 2;
  return cfg;
}

// Two cores overwrite keys on one probe chain, their Stores' program steps
// overlap and GC runs mid-recording: every boundary still recovers.
TEST(KvExplorerTest, ConcurrentChurnAllBoundariesRecover) {
  Result<CrashWorkload> workload = FindCrashWorkload("kv_concurrent_churn");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(ExplorerConcurrentKvConfig(), *workload);
  // Data pages by fill byte ('A'..'L' core 0, 'M'..'X' core 1, one per
  // Store), in recording order; GC erased a block and it was programmed again.
  std::map<char, std::vector<size_t>> pages_by_fill;
  std::set<uint64_t> programmed;
  bool reprogrammed = false;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const BioEvent& ev = rec.events[i];
    if (ev.op == BioOp::kWrite) {
      reprogrammed |= !programmed.insert(ev.lba).second;
      if (!ev.data.empty() && ev.data[0] >= 'A' && ev.data[0] <= 'X') {
        pages_by_fill[static_cast<char>(ev.data[0])].push_back(i);
      }
    }
  }
  EXPECT_TRUE(reprogrammed);
  // Some core-0 Store had a core-1 page programmed between its two pages.
  bool overlapped = false;
  for (char fill = 'A'; fill <= 'L'; ++fill) {
    const std::vector<size_t>& own = pages_by_fill[fill];
    for (char other = 'M'; other <= 'X' && own.size() >= 2; ++other) {
      for (size_t i : pages_by_fill[other]) {
        overlapped |= i > own[0] && i < own[1];
      }
    }
  }
  EXPECT_TRUE(overlapped);
  ExpectAllPassed(ExploreRecording(rec, TestOptions()));
}

TEST(KvExplorerTest, ConcurrentChurnCatchesSkippedShadowCommit) {
  StackConfig cfg = ExplorerConcurrentKvConfig();
  cfg.kv.test_skip_ftl_shadow_commit = true;
  const ExplorerReport report = ExploreWorkload(cfg, "kv_concurrent_churn", TestOptions());
  EXPECT_GT(report.total_failures, 0u) << report.Summary();
}

// Two queues over four erase blocks of eight pages: a packed page is a
// quarter of the flash a one-page value takes, so a smaller device keeps GC
// running under kv_packed_churn.
StackConfig ExplorerPackedKvConfig() {
  StackConfig cfg = ExplorerConcurrentKvConfig();
  cfg.kv.flash_pages = 32;
  return cfg;
}

// Two cores churn sub-page values through the staging frames: both frames
// are sealed, flushed and reopened, GC migrates a packed page (a program
// repeating an earlier packed page's bytes), the recording ends with a
// value still staged, and every boundary recovers.
TEST(KvExplorerTest, PackedChurnAllBoundariesRecover) {
  const StackConfig cfg = ExplorerPackedKvConfig();
  Result<CrashWorkload> workload = FindCrashWorkload("kv_packed_churn");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(cfg, *workload);
  const KvPmrLayout layout = KvSuperblock::ForConfig(cfg.kv).Layout(rec.base.pmr().size());
  int opened[kKvFrames] = {};
  bool staged[kKvFrames] = {};
  std::vector<const Buffer*> packed_pages;  // values are letters, map pages are not
  bool migrated = false;
  for (const BioEvent& ev : rec.events) {
    if (ev.op == BioOp::kPmrWrite) {
      for (uint32_t f = 0; f < kKvFrames; ++f) {
        if (ev.lba == layout.FrameHeaderOff(f)) {
          staged[f] = GetU64(ev.data, 0) != 0;
          opened[f] += staged[f];
        }
      }
    } else if (ev.op == BioOp::kWrite && std::isalpha(ev.data[0])) {
      for (const Buffer* page : packed_pages) {
        migrated |= *page == ev.data;
      }
      packed_pages.push_back(&ev.data);
    }
  }
  EXPECT_GE(opened[0], 2);
  EXPECT_GE(opened[1], 2);
  EXPECT_TRUE(staged[0] || staged[1]);
  EXPECT_TRUE(migrated);
  ExpectAllPassed(ExploreRecording(rec, TestOptions()));
}

TEST(KvExplorerTest, PackedChurnCatchesSkippedShadowCommit) {
  StackConfig cfg = ExplorerPackedKvConfig();
  cfg.kv.test_skip_ftl_shadow_commit = true;
  const ExplorerReport report = ExploreWorkload(cfg, "kv_packed_churn", TestOptions());
  EXPECT_GT(report.total_failures, 0u) << report.Summary();
}

// The KV fences are consistency boundaries: every kFtlQid PmrFence in the
// recorded stream must open its own crash boundary.
TEST(KvExplorerTest, EveryKvFenceIsABoundary) {
  Result<CrashWorkload> workload = FindCrashWorkload("kv_put_get");
  ASSERT_TRUE(workload.ok());
  const CrashRecording rec = RecordWorkload(ExplorerKvConfig(), *workload);
  const std::vector<size_t> boundaries = ConsistencyBoundaries(rec.events);
  auto has = [&](size_t b) {
    return std::find(boundaries.begin(), boundaries.end(), b) != boundaries.end();
  };
  size_t kv_fences = 0;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    if (rec.events[i].op == BioOp::kPmrFence && rec.events[i].qid == kFtlQid) {
      ++kv_fences;
      EXPECT_TRUE(has(i + 1)) << "missing boundary after KV fence at event " << i;
    }
  }
  // Two fences (ARM + COMMIT) per store, one per delete: plenty recorded.
  EXPECT_GT(kv_fences, 10u);
}

// With the shadow commit skipped, some crash states have a committed meta
// word whose LPNs were never made durable — the explorer must catch it and
// emit a deterministic replay artifact for each failure.
TEST(KvExplorerTest, SkippedShadowCommitIsCaught) {
  StackConfig cfg = ExplorerKvConfig();
  cfg.kv.test_skip_ftl_shadow_commit = true;
  ExplorerOptions options = TestOptions();
  options.emit_artifacts = true;
  options.artifact_dir = ::testing::TempDir();
  options.workload_name = "kv_put_get";
  const ExplorerReport report = ExploreWorkload(cfg, "kv_put_get", options);
  EXPECT_GT(report.total_failures, 0u);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_FALSE(report.failures[0].artifact_path.empty());
}

}  // namespace
}  // namespace ccnvme
