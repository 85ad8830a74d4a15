// Measurement helper: log-bucketed latency histograms. Benchmarks use it to
// report the same statistics the paper reports (average / p99 latency).
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <array>
#include <cstdint>
#include <string>

namespace ccnvme {

// Histogram over non-negative integer samples (we use nanoseconds).
// Buckets are 2-exponential with 16 linear sub-buckets each, giving
// <= ~6% relative quantile error — plenty for reproducing latency shapes.
class Histogram {
 public:
  Histogram() = default;

  void Add(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;
  double Stddev() const;
  // q in [0, 1].
  uint64_t Percentile(double q) const;

  // Bucket-exact difference: the samples recorded after |earlier| was
  // captured, assuming |earlier| is a snapshot of this histogram's past
  // (every bucket of |earlier| <= the same bucket here). min/max are
  // re-derived from the surviving buckets' bounds, so percentiles of the
  // delta window keep the usual <= ~6% error.
  Histogram DiffSince(const Histogram& earlier) const;

  std::string Summary() const;

 private:
  static constexpr int kExpBuckets = 40;  // covers up to ~2^40 ns
  static constexpr int kSubBuckets = 16;
  static constexpr int kNumBuckets = kExpBuckets * kSubBuckets;

  static int BucketFor(uint64_t value);
  static uint64_t BucketLowerBound(int bucket);
  static uint64_t BucketUpperBound(int bucket);

  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  double sum_sq_ = 0.0;
  uint64_t min_ = ~0ull;
  uint64_t max_ = 0;
};

}  // namespace ccnvme

#endif  // SRC_COMMON_STATS_H_
