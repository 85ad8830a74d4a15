#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ccnvme {

int Histogram::BucketFor(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const int msb = 63 - __builtin_clzll(value);
  // Exponent bucket (msb - 3) with 16 linear sub-buckets taken from the bits
  // below the msb.
  const int exp = msb - 3;  // value >= 16 implies msb >= 4, exp >= 1
  const int sub = static_cast<int>((value >> (msb - 4)) & (kSubBuckets - 1));
  const int bucket = exp * kSubBuckets + sub;
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket < kSubBuckets) {
    return static_cast<uint64_t>(bucket);
  }
  const int exp = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  const int msb = exp + 3;
  return (1ull << msb) + (static_cast<uint64_t>(sub) << (msb - 4));
}

uint64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket < kSubBuckets) {
    return static_cast<uint64_t>(bucket);
  }
  if (bucket >= kNumBuckets - 1) {
    // The last bucket also absorbs every value past the nominal range
    // (BucketFor clamps), so its true upper bound is unbounded. Returning
    // the nominal bound here made Percentile(1.0) understate max() for
    // clamped samples; callers clamp against max() themselves.
    return ~0ull;
  }
  const int exp = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  const int msb = exp + 3;
  return (1ull << msb) + (static_cast<uint64_t>(sub + 1) << (msb - 4)) - 1;
}

void Histogram::Add(uint64_t value) {
  buckets_[static_cast<size_t>(BucketFor(value))]++;
  count_++;
  sum_ += value;
  sum_sq_ += static_cast<double>(value) * static_cast<double>(value);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::Reset() { *this = Histogram(); }

Histogram Histogram::DiffSince(const Histogram& earlier) const {
  Histogram out;
  int lo = -1;
  int hi = -1;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t a = buckets_[static_cast<size_t>(i)];
    const uint64_t b = earlier.buckets_[static_cast<size_t>(i)];
    const uint64_t d = a > b ? a - b : 0;
    out.buckets_[static_cast<size_t>(i)] = d;
    if (d != 0) {
      if (lo < 0) {
        lo = i;
      }
      hi = i;
    }
  }
  out.count_ = count_ > earlier.count_ ? count_ - earlier.count_ : 0;
  out.sum_ = sum_ > earlier.sum_ ? sum_ - earlier.sum_ : 0;
  out.sum_sq_ = sum_sq_ > earlier.sum_sq_ ? sum_sq_ - earlier.sum_sq_ : 0.0;
  if (lo >= 0) {
    // The exact extrema of the window are gone; bucket bounds bracket them
    // (a diff against an empty snapshot keeps the exact values).
    out.min_ = earlier.count_ == 0 ? min_ : BucketLowerBound(lo);
    out.max_ = earlier.count_ == 0 ? max_ : std::min(BucketUpperBound(hi), max_);
  }
  return out;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Stddev() const {
  if (count_ == 0) {
    return 0.0;
  }
  const double mean = Mean();
  const double var = sum_sq_ / static_cast<double>(count_) - mean * mean;
  return var <= 0.0 ? 0.0 : std::sqrt(var);
}

uint64_t Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

std::string Histogram::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%llu p99=%llu max=%llu",
                static_cast<unsigned long long>(count_), Mean(),
                static_cast<unsigned long long>(Percentile(0.5)),
                static_cast<unsigned long long>(Percentile(0.99)),
                static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace ccnvme
