#include "stats/summary.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dohperf::stats {

void Summary::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  // Welford's update.
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Summary::add_all(std::span<const double> xs) noexcept {
  for (double x : xs) add(x);
}

double Summary::min() const noexcept { return count_ == 0 ? 0.0 : min_; }
double Summary::max() const noexcept { return count_ == 0 ? 0.0 : max_; }
double Summary::mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }

double Summary::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  assert(p >= 0.0 && p <= 100.0);
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, p);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

BoxWhisker BoxWhisker::from(std::span<const double> xs) {
  if (xs.empty()) {
    throw std::invalid_argument("box-whisker summary of an empty sample");
  }
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  BoxWhisker bw;
  bw.min = copy.front();
  bw.q1 = percentile_sorted(copy, 25.0);
  bw.median = percentile_sorted(copy, 50.0);
  bw.q3 = percentile_sorted(copy, 75.0);
  bw.max = copy.back();
  return bw;
}

std::string BoxWhisker::to_string(const std::string& unit) const {
  std::ostringstream os;
  const char* sep = unit.empty() ? "" : " ";
  os << "min=" << min << sep << unit << " q1=" << q1 << sep << unit
     << " med=" << median << sep << unit << " q3=" << q3 << sep << unit
     << " max=" << max << sep << unit;
  return os.str();
}

}  // namespace dohperf::stats
