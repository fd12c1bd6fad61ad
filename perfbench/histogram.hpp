// Fixed-memory latency histogram with 256 sub-buckets per octave.
//
// trace::LogHistogram keeps 16 sub-buckets per octave, so a percentile that
// moves by one bucket jumps by about 6% — more than the bounds this
// benchmark enforces. Here a bucket spans at most 1/256 of its lower edge
// (exact below 512 ns), and percentile() interpolates linearly inside the
// bucket that holds the nearest-rank sample, so the estimate is never more
// than one bucket width from the exact sorted-sample percentile (checked by
// the self-test). Memory is one fixed array, whatever the sample count.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  static constexpr unsigned kSubBits = 8;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void record(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++count_;
  }

  void merge(const Histogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
  }

  void clear() {
    counts_.assign(kBuckets, 0);
    count_ = 0;
  }

  std::uint64_t count() const { return count_; }

  /// Value at quantile q in (0, 1]; 0 when empty.
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    std::uint64_t before = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = counts_[b];
      if (c != 0 && static_cast<double>(before + c) >= rank) {
        const double within = (rank - static_cast<double>(before)) /
                              static_cast<double>(c);
        return static_cast<double>(bucket_low(b)) +
               within * static_cast<double>(bucket_width(b));
      }
      before += c;
    }
    return static_cast<double>(bucket_low(kBuckets - 1));
  }

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const unsigned e =
        static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return static_cast<std::size_t>((std::uint64_t{e} << kSubBits) + (v >> e));
  }
  static std::uint64_t bucket_low(std::size_t b) {
    if (b < 2 * kSub) return b;
    const unsigned e = static_cast<unsigned>(b >> kSubBits) - 1;
    return (static_cast<std::uint64_t>(b) - (std::uint64_t{e} << kSubBits))
           << e;
  }
  static std::uint64_t bucket_width(std::size_t b) {
    if (b < 2 * kSub) return 1;
    return std::uint64_t{1} << ((b >> kSubBits) - 1);
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
