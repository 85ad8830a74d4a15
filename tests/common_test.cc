#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"

namespace ccnvme {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such inode");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such inode");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = IoError("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kIoError);
}

Status Passthrough(Status s) {
  CCNVME_RETURN_IF_ERROR(s);
  return OkStatus();
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Passthrough(OkStatus()).ok());
  EXPECT_EQ(Passthrough(Corruption("x")).code(), ErrorCode::kCorruption);
}

Result<int> MakeValue(bool ok) {
  if (ok) {
    return 7;
  }
  return Aborted("nope");
}

Status UseAssignOrReturn(bool ok, int* out) {
  CCNVME_ASSIGN_OR_RETURN(int v, MakeValue(ok));
  *out = v;
  return OkStatus();
}

TEST(StatusMacroTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(true, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(UseAssignOrReturn(false, &out).code(), ErrorCode::kAborted);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  // Log-bucketing gives ~6% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 50.0, 5.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 99.0, 8.0);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  h.Add(1ull << 35);
  h.Add(1ull << 36);
  EXPECT_EQ(h.max(), 1ull << 36);
  EXPECT_GE(h.Percentile(1.0), 1ull << 35);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Add(10);
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(HistogramTest, EmptyHistogramIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
}

TEST(HistogramTest, PercentileEndpoints) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Add(v);
  }
  // q=0 lands in the minimum's bucket, q=1 is clamped to the true max even
  // though the final bucket's upper bound overshoots it.
  EXPECT_EQ(h.Percentile(0.0), 1u);
  EXPECT_EQ(h.Percentile(1.0), 100u);
  // Out-of-range q is clamped, not UB.
  EXPECT_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
  EXPECT_EQ(h.Percentile(0.0), 42u);
  EXPECT_EQ(h.Percentile(0.5), 42u);
  EXPECT_EQ(h.Percentile(1.0), 42u);
}

TEST(HistogramTest, MergeWithEmptyPreservesStats) {
  Histogram a;
  a.Add(10);
  a.Add(30);
  Histogram empty;
  a.Merge(empty);
  // Merging an empty histogram must not clobber min() with the empty
  // histogram's sentinel.
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);

  // And the symmetric direction: empty absorbing a populated one.
  Histogram b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 10u);
  EXPECT_EQ(b.max(), 30u);
}

TEST(HistogramTest, QuantileErrorStaysUnderSixPercent) {
  // 16 linear sub-buckets per power of two bound the relative quantile
  // error at 1/16 = 6.25% (the documented "~6%").
  Rng rng(2026);
  Histogram h;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Spread from ~1 up to ~2^39, inside the histogram's documented ~2^40
    // range, so many exponent buckets are exercised without saturating
    // the final bucket.
    const uint64_t v = 1 + (rng.Next() >> (25 + rng.Uniform(38)));
    samples.push_back(v);
    h.Add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const size_t rank =
        static_cast<size_t>(q * static_cast<double>(samples.size() - 1));
    const double exact = static_cast<double>(samples[rank]);
    const double approx = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(approx, exact, exact * 0.0625 + 1.0) << "q=" << q;
  }
}

TEST(BytesTest, RoundTripIntegers) {
  Buffer buf(64, 0);
  PutU16(buf, 0, 0xBEEF);
  PutU32(buf, 2, 0xDEADBEEF);
  PutU64(buf, 6, 0x0123456789ABCDEFull);
  EXPECT_EQ(GetU16(buf, 0), 0xBEEF);
  EXPECT_EQ(GetU32(buf, 2), 0xDEADBEEFu);
  EXPECT_EQ(GetU64(buf, 6), 0x0123456789ABCDEFull);
}

TEST(BytesTest, StringFieldsZeroPad) {
  Buffer buf(32, 0xFF);
  PutString(buf, 0, 16, "hello");
  EXPECT_EQ(GetString(buf, 0, 16), "hello");
  // Truncation at field length.
  PutString(buf, 16, 4, "toolong");
  EXPECT_EQ(GetString(buf, 16, 4), "tool");
}

TEST(HistogramTest, MaxValueEdgeDoesNotOverflowTopBucket) {
  // ~0ull lands in the last bucket; its upper bound must saturate instead
  // of wrapping to a small value, so percentiles stay monotonic.
  Histogram h;
  h.Add(~0ull);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), ~0ull);
  EXPECT_GE(h.Percentile(1.0), h.Percentile(0.5));
  EXPECT_GT(h.Percentile(0.5), 1ull << 39);
  h.Add(1);
  EXPECT_LE(h.Percentile(0.0), h.Percentile(1.0));
}

TEST(HistogramTest, DiffSinceIsBucketExact) {
  Histogram h;
  Histogram earlier;
  for (uint64_t v : {10ull, 20ull, 30ull}) {
    h.Add(v);
  }
  earlier = h;  // snapshot of the past
  for (uint64_t v : {1000ull, 2000ull, 4000ull, 8000ull}) {
    h.Add(v);
  }
  const Histogram delta = h.DiffSince(earlier);
  EXPECT_EQ(delta.count(), 4u);
  EXPECT_EQ(delta.sum(), h.sum() - earlier.sum());
  // The delta window holds only the large samples, so its quantiles must
  // sit in the large range, not be dragged down by the early small ones.
  EXPECT_GT(delta.Percentile(0.0), 500u);
  EXPECT_GE(delta.max(), delta.min());

  // Diffing against an empty snapshot is the identity.
  const Histogram same = h.DiffSince(Histogram());
  EXPECT_EQ(same.count(), h.count());
  EXPECT_EQ(same.sum(), h.sum());

  // Diffing equal snapshots is empty.
  const Histogram none = h.DiffSince(h);
  EXPECT_EQ(none.count(), 0u);
  EXPECT_EQ(none.sum(), 0u);
}

TEST(BytesTest, FnvChangesWithContent) {
  Buffer a = {1, 2, 3};
  Buffer b = {1, 2, 4};
  EXPECT_NE(Fnv1a(a), Fnv1a(b));
  EXPECT_EQ(Fnv1a(a), Fnv1a(a));
}

}  // namespace
}  // namespace ccnvme
