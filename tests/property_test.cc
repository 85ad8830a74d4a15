// Property-based tests: randomized sweeps against simple oracles, and
// determinism of the simulation itself.
//   * MediaStore vs. an in-memory model under random cached/durable writes,
//     flushes and power cuts with random survivor subsets;
//   * RadixTree vs. std::map under random insert/erase/lookup;
//   * byte-packing round trips over random values;
//   * bit-exact determinism of a full multi-threaded file-system run;
//   * P-SQ window scanning across ring wraparound.
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/harness/stack.h"
#include "src/mqfs/radix_tree.h"
#include "src/workload/fio_append.h"

namespace ccnvme {
namespace {

class MediaModelTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, MediaModelTest, ::testing::Values(1, 7, 42, 1337, 99999));

TEST_P(MediaModelTest, MatchesOracleThroughPowerCuts) {
  Rng rng(GetParam());
  MediaStore media(1 << 22);  // 4 MB
  std::map<uint64_t, Buffer> durable_model;  // block -> content
  std::map<uint64_t, Buffer> current_model;
  std::vector<std::pair<uint64_t, std::pair<uint64_t, Buffer>>> pending;  // seq -> (blk, data)

  const uint64_t num_blocks = (1 << 22) / kFsBlockSize;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.Uniform(10));
    const uint64_t block = rng.Uniform(num_blocks);
    if (op < 4) {  // cached write
      Buffer data(kFsBlockSize, static_cast<uint8_t>(rng.Next()));
      const uint64_t seq = media.WriteCached(block * kFsBlockSize, data);
      current_model[block] = data;
      pending.emplace_back(seq, std::make_pair(block, data));
    } else if (op < 7) {  // durable write: supersedes older cached copies
      Buffer data(kFsBlockSize, static_cast<uint8_t>(rng.Next()));
      media.WriteDurable(block * kFsBlockSize, data);
      current_model[block] = data;
      durable_model[block] = data;
      std::erase_if(pending, [&](const auto& p) { return p.second.first == block; });
    } else if (op == 7) {  // flush
      media.Flush();
      for (auto& [seq, w] : pending) {
        (void)seq;
        durable_model[w.first] = w.second;
      }
      pending.clear();
    } else if (op == 8) {  // power cut with random survivors
      std::set<uint64_t> survivors;
      for (auto& [seq, w] : pending) {
        (void)w;
        if (rng.OneIn(2)) {
          survivors.insert(seq);
        }
      }
      media.PowerCut(survivors);
      for (auto& [seq, w] : pending) {
        if (survivors.count(seq) != 0) {
          durable_model[w.first] = w.second;
        }
      }
      pending.clear();
      current_model = durable_model;
    } else {  // verify a random block, both views
      Buffer cur(kFsBlockSize);
      media.Read(block * kFsBlockSize, cur);
      auto it = current_model.find(block);
      EXPECT_EQ(cur, it == current_model.end() ? Buffer(kFsBlockSize, 0) : it->second)
          << "current view diverged at step " << step;
      Buffer dur(kFsBlockSize);
      media.ReadDurable(block * kFsBlockSize, dur);
      auto dit = durable_model.find(block);
      EXPECT_EQ(dur, dit == durable_model.end() ? Buffer(kFsBlockSize, 0) : dit->second)
          << "durable view diverged at step " << step;
    }
  }
}

class RadixOracleTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RadixOracleTest, ::testing::Values(3, 17, 2718));

TEST_P(RadixOracleTest, MatchesStdMap) {
  Rng rng(GetParam());
  RadixTree<uint64_t> tree;
  std::map<uint64_t, uint64_t> model;
  for (int step = 0; step < 3000; ++step) {
    // Mix dense small keys with sparse huge ones.
    const uint64_t key = rng.OneIn(3) ? rng.Uniform(64) : rng.Next() >> rng.Uniform(40);
    const int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      const uint64_t value = rng.Next();
      tree.GetOrCreate(key) = value;
      model[key] = value;
    } else if (op == 1) {
      EXPECT_EQ(tree.Erase(key), model.erase(key) > 0);
    } else {
      auto* found = tree.Find(key);
      auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end()) << "key " << key;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(tree.size(), model.size());
  }
  // Final: full ordered iteration must match.
  std::vector<uint64_t> keys;
  tree.ForEach([&](uint64_t k, uint64_t&) { keys.push_back(k); });
  std::vector<uint64_t> want;
  for (auto& [k, v] : model) {
    (void)v;
    want.push_back(k);
  }
  EXPECT_EQ(keys, want);
}

TEST(RadixTreeTest, BlockReuseOverwrite) {
  // MQFS reuses freed block numbers: a key that is erased and later
  // re-created must behave like a fresh slot, and GetOrCreate on a live key
  // must hand back the same slot (overwrite-in-place), never a duplicate.
  RadixTree<uint64_t> tree;
  std::map<uint64_t, uint64_t> model;
  Rng rng(4242);
  std::vector<uint64_t> live;
  for (int round = 0; round < 2000; ++round) {
    if (!live.empty() && rng.OneIn(3)) {
      // Free a random live block...
      const size_t pick = rng.Uniform(live.size());
      const uint64_t key = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      ASSERT_TRUE(tree.Erase(key));
      model.erase(key);
      // ...and immediately reuse the same number with new contents.
      const uint64_t fresh = rng.Next();
      tree.GetOrCreate(key) = fresh;
      model[key] = fresh;
      live.push_back(key);
    } else {
      const uint64_t key = rng.Uniform(512);  // dense space forces reuse
      const uint64_t value = rng.Next();
      const bool existed = tree.Find(key) != nullptr;
      ASSERT_EQ(existed, model.count(key) != 0);
      tree.GetOrCreate(key) = value;  // create or overwrite in place
      model[key] = value;
      if (!existed) {
        live.push_back(key);
      }
    }
    ASSERT_EQ(tree.size(), model.size());
  }
  for (const auto& [key, value] : model) {
    auto* found = tree.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
  }
}

TEST(RadixTreeTest, EraseIsExactAndIdempotent) {
  RadixTree<uint64_t> tree;
  tree.GetOrCreate(7) = 70;
  tree.GetOrCreate(1ull << 40) = 71;  // deep path, far from the dense keys
  EXPECT_FALSE(tree.Erase(8));        // absent sibling key
  EXPECT_TRUE(tree.Erase(7));
  EXPECT_FALSE(tree.Erase(7));  // double-free is a no-op
  EXPECT_EQ(tree.Find(7), nullptr);
  ASSERT_NE(tree.Find(1ull << 40), nullptr);
  EXPECT_EQ(*tree.Find(1ull << 40), 71u);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(PropertyTest, BytePackingRoundTripsRandomValues) {
  Rng rng(555);
  Buffer buf(64, 0);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v64 = rng.Next();
    const uint32_t v32 = static_cast<uint32_t>(rng.Next());
    const uint16_t v16 = static_cast<uint16_t>(rng.Next());
    PutU64(buf, 0, v64);
    PutU32(buf, 8, v32);
    PutU16(buf, 12, v16);
    EXPECT_EQ(GetU64(buf, 0), v64);
    EXPECT_EQ(GetU32(buf, 8), v32);
    EXPECT_EQ(GetU16(buf, 12), v16);
  }
}

// The whole point of a virtual-time simulation: the same configuration must
// produce bit-identical results, event counts and final media state.
TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  auto run = [] {
    StackConfig cfg;
    cfg.num_queues = 4;
    cfg.fs.journal = JournalKind::kMultiQueue;
    cfg.fs.journal_areas = 4;
    cfg.fs.journal_blocks = 8192;
    StorageStack stack(cfg);
    Status st = stack.MkfsAndMount();
    CCNVME_CHECK(st.ok());
    FioOptions opts;
    opts.num_threads = 4;
    opts.duration_ns = 3'000'000;
    const FioResult res = RunFioAppend(stack, opts);
    // Fingerprint: ops, event count, and a hash of the durable media.
    uint64_t media_hash = 0xcbf29ce484222325ull;
    for (const auto& [block, data] : stack.ssd().media().SnapshotDurable()) {
      media_hash ^= block * 0x100000001b3ull;
      media_hash = Fnv1a(data, media_hash);
    }
    return std::make_tuple(res.ops, stack.sim().events_processed(), media_hash,
                           stack.sim().now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b) << "simulation is not deterministic";
}

TEST(PsqWindowTest, WindowScansAcrossRingWraparound) {
  // Push enough transactions that the P-SQ ring wraps, then leave one
  // committed-but-unfinished transaction straddling the wrap point and
  // verify the scan reports exactly its members.
  StorageStack stack(StackConfig{});
  const uint16_t depth = stack.controller().config().queue_depth;
  stack.Run([&] {
    Buffer d(kLbaSize, 1);
    Buffer jd(kLbaSize, 2);
    // Fill most of the ring with completed transactions (2 slots each).
    const int fill = (depth - 3) / 2;
    for (int i = 0; i < fill; ++i) {
      stack.ccnvme()->SubmitTx(0, static_cast<uint64_t>(i + 1), 10, &d);
      auto tx = stack.ccnvme()->CommitTx(0, static_cast<uint64_t>(i + 1), 11, &jd);
      stack.ccnvme()->WaitDurable(tx);
    }
    // This transaction's slots straddle the ring end.
    stack.ccnvme()->SubmitTx(0, 9999, 20, &d);
    stack.ccnvme()->SubmitTx(0, 9999, 21, &d);
    auto tx = stack.ccnvme()->CommitTx(0, 9999, 22, &jd);
    const auto window =
        CcNvmeDriver::ScanUnfinished(stack.controller().pmr(), 1, depth);
    ASSERT_EQ(window.size(), 3u);
    for (const auto& req : window) {
      EXPECT_EQ(req.tx_id, 9999u);
    }
    EXPECT_TRUE(window[2].is_commit);
    stack.ccnvme()->WaitDurable(tx);
  });
}

}  // namespace
}  // namespace ccnvme
