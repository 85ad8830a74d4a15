// Causal critical-path profiler (src/profile): exact blame decomposition on
// hand-built synthetic span DAGs, the exact-sum invariant
// (sum(blame) == end-to-end latency) on a real MQFS fsync workload, report
// rendering, and the observer contract — profiling on/off yields identical
// virtual time.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/stack.h"
#include "src/profile/critical_path.h"
#include "src/profile/report.h"

namespace ccnvme {
namespace {

using Segment = CriticalPathProfiler::Segment;
using RequestProfile = CriticalPathProfiler::RequestProfile;

// Keeps every finished request profile, in finalization order.
class ProfileCollector : public CriticalPathProfiler::RequestObserver {
 public:
  void OnRequestProfile(const RequestProfile& profile,
                        const std::vector<TraceEvent>& events) override {
    (void)events;
    profiles.push_back(profile);
  }
  std::vector<RequestProfile> profiles;
};

TraceEvent Span(TracePoint p, uint64_t begin, uint64_t dur, uint64_t req,
                uint64_t tx = 0) {
  TraceEvent ev;
  ev.ts_ns = begin;
  ev.dur_ns = dur;
  ev.req_id = req;
  ev.tx_id = tx;
  ev.point = p;
  ev.is_span = true;
  return ev;
}

TraceEvent Wait(WaitEdge e, uint64_t begin, uint64_t dur, uint64_t req,
                uint64_t tx = 0) {
  TraceEvent ev;
  ev.ts_ns = begin;
  ev.dur_ns = dur;
  ev.req_id = req;
  ev.tx_id = tx;
  ev.edge = e;
  return ev;
}

// Feeds |events| then the root span; returns the finalized profile.
RequestProfile Profile(CriticalPathProfiler& profiler, const std::vector<TraceEvent>& events,
                       uint64_t root_begin, uint64_t root_dur, uint64_t req = 1) {
  ProfileCollector collector;
  profiler.AddRequestObserver(&collector);
  for (const TraceEvent& ev : events) {
    profiler.OnTraceEvent(ev);
  }
  profiler.OnTraceEvent(Span(TracePoint::kSyncTotal, root_begin, root_dur, req));
  profiler.RemoveRequestObserver(&collector);
  EXPECT_EQ(collector.profiles.size(), 1u);
  return collector.profiles.empty() ? RequestProfile{} : collector.profiles.back();
}

uint64_t BlameOf(const RequestProfile& p, BlameKey key) {
  auto it = p.blame_ns.find(key.packed());
  return it == p.blame_ns.end() ? 0 : it->second;
}

void ExpectExactSum(const RequestProfile& p) {
  EXPECT_EQ(p.TotalBlame(), p.latency_ns())
      << "blame must decompose the window with no gap and no overlap";
  // The critical path itself must tile [begin, end] seamlessly.
  ASSERT_FALSE(p.critical_path.empty());
  EXPECT_EQ(p.critical_path.front().begin_ns, p.begin_ns);
  EXPECT_EQ(p.critical_path.back().end_ns, p.end_ns);
  for (size_t i = 1; i < p.critical_path.size(); ++i) {
    EXPECT_EQ(p.critical_path[i].begin_ns, p.critical_path[i - 1].end_ns);
  }
}

// --- Synthetic DAGs -------------------------------------------------------

// Chain: submit runs, then a single wait, then a tail phase; every
// nanosecond belongs to exactly one key.
//   root  [0,100)
//   run   fs.submit_data [0,30)
//   wait  tx_durable     [30,80)
//   run   journal.wait_durable [80,95)   (gap [95,100) -> root)
TEST(CriticalPathTest, ChainExactBlame) {
  CriticalPathProfiler profiler;
  auto p = Profile(profiler,
                   {
                       Span(TracePoint::kSyncSubmitData, 0, 30, 1),
                       Wait(WaitEdge::kTxDurable, 30, 50, 1),
                       Span(TracePoint::kSyncWaitDurable, 80, 15, 1),
                   },
                   0, 100);
  ExpectExactSum(p);
  EXPECT_EQ(p.latency_ns(), 100u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncSubmitData)), 30u);
  EXPECT_EQ(BlameOf(p, BlameKey::Wait(WaitEdge::kTxDurable)), 50u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncWaitDurable)), 15u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncTotal)), 5u);  // gap
  EXPECT_EQ(p.DominantKey(), BlameKey::Wait(WaitEdge::kTxDurable));

  ASSERT_EQ(p.critical_path.size(), 4u);
  EXPECT_EQ(p.critical_path[0].key, BlameKey::Run(TracePoint::kSyncSubmitData));
  EXPECT_EQ(p.critical_path[1].key, BlameKey::Wait(WaitEdge::kTxDurable));
  EXPECT_EQ(p.critical_path[2].key, BlameKey::Run(TracePoint::kSyncWaitDurable));
  EXPECT_EQ(p.critical_path[3].key, BlameKey::Run(TracePoint::kSyncTotal));
}

// Diamond: a wait edge overlapping a run span — the wait wins the overlap,
// the run keeps only its uncovered prefix.
//   root [0,100), run fs.submit_data [10,60), wait doorbell [40,70)
//   => root [0,10) 10 | submit [10,40) 30 | wait [40,70) 30 | root [70,100) 30
TEST(CriticalPathTest, DiamondWaitBeatsRun) {
  CriticalPathProfiler profiler;
  auto p = Profile(profiler,
                   {
                       Span(TracePoint::kSyncSubmitData, 10, 50, 1),
                       Wait(WaitEdge::kDoorbellCoalesce, 40, 30, 1),
                   },
                   0, 100);
  ExpectExactSum(p);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncTotal)), 40u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncSubmitData)), 30u);
  EXPECT_EQ(BlameOf(p, BlameKey::Wait(WaitEdge::kDoorbellCoalesce)), 30u);
}

// Nested runs: the later-starting (innermost, most specific) span wins its
// window; the outer span keeps the flanks.
//   run fs.submit_data [10,80), run fs.submit_inode [30,50)
TEST(CriticalPathTest, InnermostRunWins) {
  CriticalPathProfiler profiler;
  auto p = Profile(profiler,
                   {
                       Span(TracePoint::kSyncSubmitData, 10, 70, 1),
                       Span(TracePoint::kSyncSubmitInode, 30, 20, 1),
                   },
                   0, 100);
  ExpectExactSum(p);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncSubmitData)), 50u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncSubmitInode)), 20u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncTotal)), 30u);
}

// Straggler fan-in: two waits where the later-starting one shadows the
// earlier in the overlap (the most recent dependency is the binding one).
//   wait tx_durable [20,90), wait volume_fanout [60,95)
//   => tx_durable [20,60) 40, volume_fanout [60,95) 35
TEST(CriticalPathTest, StragglerFanIn) {
  CriticalPathProfiler profiler;
  auto p = Profile(profiler,
                   {
                       Wait(WaitEdge::kTxDurable, 20, 70, 1),
                       Wait(WaitEdge::kVolumeFanout, 60, 35, 1),
                   },
                   0, 100);
  ExpectExactSum(p);
  EXPECT_EQ(BlameOf(p, BlameKey::Wait(WaitEdge::kTxDurable)), 40u);
  EXPECT_EQ(BlameOf(p, BlameKey::Wait(WaitEdge::kVolumeFanout)), 35u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncTotal)), 25u);
}

// Events sticking out of the root window are clipped to it, and events of
// OTHER requests never contaminate the profile.
TEST(CriticalPathTest, ClipsToWindowAndIsolatesRequests) {
  CriticalPathProfiler profiler;
  profiler.OnTraceEvent(Span(TracePoint::kSyncSubmitInode, 0, 500, 2));  // req 2
  auto p = Profile(profiler,
                   {
                       Span(TracePoint::kSyncSubmitData, 0, 60, 1),  // starts before
                       Wait(WaitEdge::kTxDurable, 80, 100, 1),       // ends after
                   },
                   50, 50);  // window [50,100)
  ExpectExactSum(p);
  EXPECT_EQ(p.latency_ns(), 50u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncSubmitData)), 10u);
  EXPECT_EQ(BlameOf(p, BlameKey::Wait(WaitEdge::kTxDurable)), 20u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncTotal)), 20u);
  EXPECT_EQ(BlameOf(p, BlameKey::Run(TracePoint::kSyncSubmitInode)), 0u);
}

// Wait detail: a wait window is re-attributed against device-side spans of
// the same request plus tx-matched events from other actors; the
// unexplained remainder stays on the wait key itself. The detail sums
// exactly to the wait's blame.
TEST(CriticalPathTest, WaitDetailSubAttribution) {
  CriticalPathProfiler profiler;
  // Device-side execution recorded for the same tx by another actor.
  profiler.OnTraceEvent(Span(TracePoint::kNvmeExecute, 55, 20, 0, /*tx=*/7));
  auto p = Profile(profiler,
                   {
                       Wait(WaitEdge::kTxDurable, 50, 40, 1, /*tx=*/7),
                   },
                   0, 100);
  ExpectExactSum(p);
  EXPECT_EQ(p.tx_id, 7u);
  const uint64_t wait_blame = BlameOf(p, BlameKey::Wait(WaitEdge::kTxDurable));
  EXPECT_EQ(wait_blame, 40u);
  const auto detail_it =
      p.wait_detail_ns.find(BlameKey::Wait(WaitEdge::kTxDurable).packed());
  ASSERT_NE(detail_it, p.wait_detail_ns.end());
  const auto& detail = detail_it->second;
  uint64_t detail_sum = 0;
  for (const auto& [sub, ns] : detail) detail_sum += ns;
  EXPECT_EQ(detail_sum, wait_blame) << "wait detail must tile the wait window";
  auto sub = detail.find(BlameKey::Run(TracePoint::kNvmeExecute).packed());
  ASSERT_NE(sub, detail.end());
  EXPECT_EQ(sub->second, 20u);  // device executed 20 of the 40 waited ns
  auto rem = detail.find(BlameKey::Wait(WaitEdge::kTxDurable).packed());
  ASSERT_NE(rem, detail.end());
  EXPECT_EQ(rem->second, 20u);  // unexplained remainder
}

// Aggregation across requests + ResetAggregation semantics.
TEST(CriticalPathTest, AggregatesAndReset) {
  CriticalPathProfiler profiler;
  for (uint64_t req = 1; req <= 3; ++req) {
    profiler.OnTraceEvent(Wait(WaitEdge::kTxDurable, 10, 60, req));
    profiler.OnTraceEvent(Span(TracePoint::kSyncTotal, 0, 100, req));
  }
  EXPECT_EQ(profiler.finished_requests(), 3u);
  EXPECT_EQ(profiler.total_latency_ns(), 300u);
  const auto& agg = profiler.blame();
  auto it = agg.find(BlameKey::Wait(WaitEdge::kTxDurable).packed());
  ASSERT_NE(it, agg.end());
  EXPECT_EQ(it->second.total_ns, 180u);
  EXPECT_EQ(it->second.requests, 3u);
  EXPECT_EQ(profiler.DominantKey(), BlameKey::Wait(WaitEdge::kTxDurable));

  auto top = profiler.TopKeys(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, BlameKey::Wait(WaitEdge::kTxDurable));
  EXPECT_EQ(top[0].second, 180u);

  profiler.ResetAggregation();
  EXPECT_EQ(profiler.finished_requests(), 0u);
  EXPECT_EQ(profiler.total_latency_ns(), 0u);
  EXPECT_EQ(profiler.latency_ns().count(), 0u);
  EXPECT_TRUE(profiler.blame().empty());
  EXPECT_TRUE(profiler.wait_detail().empty());
}

// --- Real workload --------------------------------------------------------

StackConfig MqfsFsyncConfig() {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.enable_ccnvme = true;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  return cfg;
}

uint64_t RunFsyncWorkload(StorageStack& stack, int iters) {
  Status st = stack.MkfsAndMount();
  EXPECT_TRUE(st.ok()) << st.ToString();
  stack.Run([&] {
    for (int i = 0; i < iters; ++i) {
      auto ino = stack.fs().Create("/p_" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
  });
  return stack.sim().now();
}

// The acceptance-criteria invariant: on a REAL MQFS fsync workload, every
// profiled request's blame vector sums EXACTLY to its end-to-end latency,
// and the aggregates are consistent with the per-request profiles.
TEST(CriticalPathWorkloadTest, ExactSumOnEveryRequest) {
  StorageStack stack(MqfsFsyncConfig());
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  ProfileCollector collector;
  profiler.AddRequestObserver(&collector);
  RunFsyncWorkload(stack, 50);

  EXPECT_GE(profiler.finished_requests(), 50u);
  ASSERT_EQ(collector.profiles.size(), profiler.finished_requests());
  uint64_t latency_sum = 0;
  for (const auto& p : collector.profiles) {
    ExpectExactSum(p);
    latency_sum += p.latency_ns();
  }
  EXPECT_EQ(latency_sum, profiler.total_latency_ns());

  // Aggregate blame is the column sum of the per-request vectors, so it must
  // also sum to the total latency.
  uint64_t agg_sum = 0;
  for (const auto& [key, agg] : profiler.blame()) agg_sum += agg.total_ns;
  EXPECT_EQ(agg_sum, profiler.total_latency_ns());

  // The durability round trip dominates the MQFS fsync path (Fig. 14).
  EXPECT_EQ(profiler.DominantKey(), BlameKey::Wait(WaitEdge::kTxDurable));

  // Reports render without tripping any internal checks and name the edge.
  const std::string report = FormatBlameReport(profiler);
  EXPECT_NE(report.find("wait.tx_durable"), std::string::npos);
  const std::string dominant = FormatDominantLine(profiler);
  EXPECT_NE(dominant.find("wait.tx_durable"), std::string::npos);
  const std::string flame = FlameJson(profiler);
  EXPECT_NE(flame.find("\"name\""), std::string::npos);
}

// Observer contract: enabling profiling must not move a single virtual-time
// event — the final clock is byte-identical with profiling on or off.
TEST(CriticalPathWorkloadTest, ProfilingDoesNotPerturbVirtualTime) {
  uint64_t now_plain;
  uint64_t now_traced;
  uint64_t now_profiled;
  {
    StorageStack stack(MqfsFsyncConfig());
    now_plain = RunFsyncWorkload(stack, 30);
  }
  {
    StorageStack stack(MqfsFsyncConfig());
    stack.EnableTracing();
    now_traced = RunFsyncWorkload(stack, 30);
  }
  {
    StorageStack stack(MqfsFsyncConfig());
    stack.EnableProfiling();
    now_profiled = RunFsyncWorkload(stack, 30);
  }
  EXPECT_EQ(now_plain, now_traced);
  EXPECT_EQ(now_traced, now_profiled);
}

// Determinism: two identical profiled runs produce identical aggregates.
TEST(CriticalPathWorkloadTest, ProfilesAreDeterministic) {
  auto run = [](std::map<uint32_t, uint64_t>* blame) -> uint64_t {
    StorageStack stack(MqfsFsyncConfig());
    CriticalPathProfiler& profiler = stack.EnableProfiling();
    const uint64_t end = RunFsyncWorkload(stack, 20);
    for (const auto& [key, agg] : profiler.blame()) {
      (*blame)[key] = agg.total_ns;
    }
    return end;
  };
  std::map<uint32_t, uint64_t> blame_a;
  std::map<uint32_t, uint64_t> blame_b;
  const uint64_t end_a = run(&blame_a);
  const uint64_t end_b = run(&blame_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(blame_a, blame_b);
  EXPECT_FALSE(blame_a.empty());
}

}  // namespace
}  // namespace ccnvme
