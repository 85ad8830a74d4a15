// Bench report schema round-trip and the regression-compare semantics the
// CI perf gate relies on (direction read off the metric name, exact-match
// default tolerance, missing scenario/metric = regression).
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_runner.h"

namespace ccnvme {
namespace {

BenchReport MakeReport() {
  BenchReport r;
  r.seed = 7;
  r.inject_doorbell = 1.0;
  BenchScenarioResult s;
  s.name = "fig14_latency_breakdown";
  s.metrics["mqfs_fsync_total_ns"] = 35775.5;
  s.metrics["mqfs_fsync_speedup_pct"] = 23.0;
  s.blame_ns["wait.tx_durable"] = 1570118;
  r.scenarios.push_back(s);
  return r;
}

TEST(BenchReportTest, JsonRoundTrip) {
  const BenchReport r = MakeReport();
  const std::string doc = BenchReportToJson(r);
  EXPECT_NE(doc.find("\"schema\": \"ccnvme-bench-v1\""), std::string::npos);

  BenchReport parsed;
  std::string error;
  ASSERT_TRUE(ParseBenchReport(doc, &parsed, &error)) << error;
  EXPECT_EQ(parsed.seed, 7u);
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  const BenchScenarioResult* s = parsed.Find("fig14_latency_breakdown");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->metrics.at("mqfs_fsync_total_ns"), 35775.5);
  EXPECT_EQ(s->blame_ns.at("wait.tx_durable"), 1570118u);

  // Round-tripping the parsed report reproduces the document byte-for-byte
  // (the gate depends on the serialization being canonical).
  EXPECT_EQ(BenchReportToJson(parsed), doc);
}

TEST(BenchReportTest, ParseRejectsGarbage) {
  BenchReport parsed;
  std::string error;
  EXPECT_FALSE(ParseBenchReport("{not json", &parsed, &error));
  EXPECT_FALSE(ParseBenchReport("{\"schema\": \"other-v9\"}", &parsed, &error));
  EXPECT_NE(error.find("other-v9"), std::string::npos);
}

TEST(BenchCompareTest, IdenticalReportsPass) {
  const BenchReport base = MakeReport();
  std::string diff;
  EXPECT_EQ(CompareBenchReports(base, base, 0.0, &diff), 0);
  EXPECT_TRUE(diff.empty());
}

TEST(BenchCompareTest, LatencyUpIsRegressionAtZeroTolerance) {
  const BenchReport base = MakeReport();
  BenchReport cur = base;
  cur.scenarios[0].metrics["mqfs_fsync_total_ns"] += 1.0;  // "_ns": lower better
  std::string diff;
  EXPECT_EQ(CompareBenchReports(base, cur, 0.0, &diff), 1);
  EXPECT_NE(diff.find("REGRESSION"), std::string::npos);
  EXPECT_NE(diff.find("mqfs_fsync_total_ns"), std::string::npos);

  // A generous tolerance lets the same delta through.
  EXPECT_EQ(CompareBenchReports(base, cur, 0.01, nullptr), 0);
}

TEST(BenchCompareTest, LatencyDownIsImprovement) {
  const BenchReport base = MakeReport();
  BenchReport cur = base;
  cur.scenarios[0].metrics["mqfs_fsync_total_ns"] -= 100.0;
  std::string diff;
  EXPECT_EQ(CompareBenchReports(base, cur, 0.0, &diff), 0);
  EXPECT_NE(diff.find("improvement"), std::string::npos);
}

TEST(BenchCompareTest, ThroughputDownIsRegression) {
  const BenchReport base = MakeReport();
  BenchReport cur = base;
  cur.scenarios[0].metrics["mqfs_fsync_speedup_pct"] -= 1.0;  // higher better
  EXPECT_EQ(CompareBenchReports(base, cur, 0.0, nullptr), 1);
}

BenchReport OneMetric(const std::string& metric, double value) {
  BenchReport r;
  BenchScenarioResult s;
  s.name = "scenario";
  s.metrics[metric] = value;
  r.scenarios.push_back(s);
  return r;
}

// The direction is read off the metric name: one name per lower-is-better
// family in the baseline, and higher-is-better names going the other way.
TEST(BenchCompareTest, DirectionFollowsTheMetricName) {
  const char* const kLowerIsBetter[] = {
      "txaware_n4_durable_ns",
      "kv_put_ns_kvssd",
      "kv_gc_stall_us",
      "ftl_waf",
      "ftl_waf_gc_low_4",
      "kv_write_amp_kvssd",
      "data_journal_write_amplification",
      "ccnvme_mmio_writes_n4",
      "doorbell_herd_naive_mmio_per_tx",
      "ftl_gc_runs",
      "ftl_gc_migrated_pages",
      "ftl_map_loads",
      "commit_convoy_leader_parks",
      "sqfull_storm_blocks",
      "tail_clean_signatures",
  };
  const char* const kHigherIsBetter[] = {
      "mqfs_8c_4k_kiops",  "nvlog_1t_4k_mbps", "util_750_ext4_24t", "explored_states",
      "crash_pass_rate",   "tail_herd_matches", "ideal_ktps_5blk",   "sqfull_storm_ktps",
  };
  auto compare = [](const char* metric, double before, double after, std::string* diff) {
    diff->clear();
    return CompareBenchReports(OneMetric(metric, before), OneMetric(metric, after), 0.0, diff);
  };
  std::string diff;
  for (const char* metric : kLowerIsBetter) {
    EXPECT_EQ(compare(metric, 10.0, 11.0, &diff), 1) << metric;
    EXPECT_NE(diff.find("REGRESSION"), std::string::npos) << metric;
    EXPECT_EQ(compare(metric, 10.0, 9.0, &diff), 0) << metric;
    EXPECT_NE(diff.find("improvement"), std::string::npos) << metric;
  }
  for (const char* metric : kHigherIsBetter) {
    EXPECT_EQ(compare(metric, 10.0, 9.0, &diff), 1) << metric;
    EXPECT_NE(diff.find("REGRESSION"), std::string::npos) << metric;
    EXPECT_EQ(compare(metric, 10.0, 11.0, &diff), 0) << metric;
    EXPECT_NE(diff.find("improvement"), std::string::npos) << metric;
  }
  // A clean tail classifier reports no signature; the first one is a
  // regression, not an improvement.
  EXPECT_EQ(compare("tail_clean_signatures", 0.0, 1.0, &diff), 1);
}

TEST(BenchCompareTest, MissingMetricAndScenarioAreRegressions) {
  const BenchReport base = MakeReport();
  BenchReport cur = base;
  cur.scenarios[0].metrics.erase("mqfs_fsync_total_ns");
  EXPECT_EQ(CompareBenchReports(base, cur, 0.0, nullptr), 1);

  BenchReport empty;
  std::string diff;
  EXPECT_EQ(CompareBenchReports(base, empty, 0.0, &diff), 1);
  EXPECT_NE(diff.find("scenario missing"), std::string::npos);

  // Extra scenarios in the current run are fine (new benches land first,
  // the baseline catches up on the next refresh).
  EXPECT_EQ(CompareBenchReports(empty, base, 0.0, nullptr), 0);
}

}  // namespace
}  // namespace ccnvme
