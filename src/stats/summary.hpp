// Summary statistics: moments, percentiles and box-whisker summaries used by
// every benchmark harness to report the same aggregates the paper plots.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dohperf::stats {

/// Streaming summary of a scalar sample (Welford's online algorithm for the
/// variance so a single pass suffices and large samples stay stable).
class Summary {
 public:
  void add(double x) noexcept;
  void add_all(std::span<const double> xs) noexcept;

  std::size_t count() const noexcept { return count_; }
  double min() const noexcept;
  double max() const noexcept;
  double mean() const noexcept;
  double variance() const noexcept;  ///< sample variance (n-1 denominator)
  double stddev() const noexcept;
  double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample using linear interpolation between closest ranks
/// (the same convention as numpy's default). `p` is in [0, 100].
/// The input need not be sorted; a sorted copy is made. Throws
/// std::invalid_argument for an empty sample, as do the functions below.
double percentile(std::span<const double> xs, double p);

/// Percentile of an already-sorted sample (ascending). No copy.
double percentile_sorted(std::span<const double> sorted, double p);

/// Median shorthand.
double median(std::span<const double> xs);

/// Five-number summary matching the paper's box-and-whisker plots, where
/// "whiskers span the full range of values" (Figures 3-5).
struct BoxWhisker {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;

  static BoxWhisker from(std::span<const double> xs);

  /// Render as e.g. "min=1 q1=2 med=3 q3=4 max=5" with the given unit label.
  std::string to_string(const std::string& unit = "") const;
};

}  // namespace dohperf::stats
