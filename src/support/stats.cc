#include "src/support/stats.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"

namespace diablo {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

const std::vector<double>& SampleSet::sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_;
}

double SampleSet::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::Min() const {
  return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
}
double SampleSet::Max() const {
  return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::Percentile(double q) const {
  if (samples_.empty()) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  const size_t k = rank == 0 ? 0 : rank - 1;
  if (sorted_) {
    return samples_[k];
  }
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(samples_.begin(), nth, samples_.end());
#if defined(DIABLO_CHECKED)
  std::vector<double> ref = samples_;
  std::sort(ref.begin(), ref.end());
  DIABLO_CHECK(ref[k] == *nth, "selected percentile disagrees with a sorted copy");
#endif
  return *nth;
}

double SampleSet::CdfAt(double x) const {
  const auto& s = sorted();
  if (s.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
}

std::vector<std::pair<double, double>> SampleSet::CdfSeries(size_t points) const {
  std::vector<std::pair<double, double>> series;
  if (samples_.empty() || points == 0) {
    return series;
  }
  const double lo = Min();
  const double hi = Max();
  const double step = points > 1 ? (hi - lo) / static_cast<double>(points - 1) : 0.0;
  series.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    const double x = lo + step * static_cast<double>(i);
    series.emplace_back(x, CdfAt(x));
  }
  return series;
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), width_((hi - lo) / static_cast<double>(buckets)), counts_(buckets, 0) {}

void Histogram::Add(double x) {
  double idx = (x - lo_) / width_;
  size_t bucket = 0;
  if (idx >= static_cast<double>(counts_.size())) {
    bucket = counts_.size() - 1;
  } else if (idx > 0.0) {
    bucket = static_cast<size_t>(idx);
  }
  ++counts_[bucket];
  ++total_;
}

double Histogram::BucketLow(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

void TimeSeries::Add(double seconds, double value) {
  if (seconds < 0.0) {
    seconds = 0.0;
  }
  const size_t bucket = static_cast<size_t>(seconds);
  if (bucket >= sums_.size()) {
    sums_.resize(bucket + 1, 0.0);
    counts_.resize(bucket + 1, 0);
  }
  sums_[bucket] += value;
  ++counts_[bucket];
}

double TimeSeries::SumAt(size_t second) const {
  return second < sums_.size() ? sums_[second] : 0.0;
}

uint64_t TimeSeries::CountAt(size_t second) const {
  return second < counts_.size() ? counts_[second] : 0;
}

double TimeSeries::MeanAt(size_t second) const {
  const uint64_t n = CountAt(second);
  return n == 0 ? 0.0 : SumAt(second) / static_cast<double>(n);
}

double TimeSeries::TotalSum() const {
  double sum = 0.0;
  for (double s : sums_) {
    sum += s;
  }
  return sum;
}

uint64_t TimeSeries::TotalCount() const {
  uint64_t n = 0;
  for (uint64_t c : counts_) {
    n += c;
  }
  return n;
}

std::string AsciiBar(double value, double max_value, int width) {
  if (max_value <= 0.0 || value < 0.0 || width <= 0) {
    return std::string();
  }
  const int filled = static_cast<int>(
      std::round(std::min(value / max_value, 1.0) * width));
  std::string bar(static_cast<size_t>(filled), '#');
  bar.append(static_cast<size_t>(width - filled), ' ');
  return bar;
}

}  // namespace diablo
