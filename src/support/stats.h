// Statistics primitives used by the result aggregator and the benches:
// running moments, exact percentiles/CDFs over stored samples, fixed-width
// histograms and per-second time series.
#ifndef SRC_SUPPORT_STATS_H_
#define SRC_SUPPORT_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace diablo {

// Streaming mean/variance/min/max (Welford). O(1) memory.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores samples for exact order statistics. Min/Max scan and Percentile
// selects (nth_element) in linear time; only the CDF queries sort, once, and
// the sorted order is cached.
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  // Sums in storage order, which Percentile/Median/CdfAt may permute: call
  // it first where the result must not depend on earlier queries.
  double Mean() const;
  double Min() const;
  double Max() const;
  // q in [0, 1]; nearest-rank percentile. Returns 0 for an empty set.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }

  // Cumulative distribution: fraction of samples <= x.
  double CdfAt(double x) const;

  // Evaluates the CDF at `points` evenly spaced values between min and max,
  // returning (value, fraction<=value) pairs — the series behind Fig. 6.
  std::vector<std::pair<double, double>> CdfSeries(size_t points) const;

  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Fixed-bucket histogram over [lo, hi); out-of-range values clamp to the
// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  uint64_t BucketCount(size_t i) const { return counts_[i]; }
  size_t buckets() const { return counts_.size(); }
  double BucketLow(size_t i) const;
  uint64_t total() const { return total_; }

 private:
  double lo_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

// Per-second buckets of a quantity over the duration of a run, e.g. the
// committed-transactions-per-second series behind throughput plots.
class TimeSeries {
 public:
  // Adds `value` at time `seconds` since run start (fractional allowed).
  void Add(double seconds, double value);

  // Number of buckets (last populated second + 1).
  size_t size() const { return sums_.size(); }
  double SumAt(size_t second) const;
  uint64_t CountAt(size_t second) const;
  double MeanAt(size_t second) const;

  double TotalSum() const;
  uint64_t TotalCount() const;

 private:
  std::vector<double> sums_;
  std::vector<uint64_t> counts_;
};

// Renders a crude fixed-width ASCII bar, used by the bench binaries to echo
// the paper's bar charts in a terminal.
std::string AsciiBar(double value, double max_value, int width);

}  // namespace diablo

#endif  // SRC_SUPPORT_STATS_H_
