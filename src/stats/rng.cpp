#include "stats/rng.hpp"

#include <cassert>
#include <cmath>

namespace dohperf::stats {

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::next_double() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::next_below(std::uint64_t bound) noexcept {
  assert(bound != 0);
  // Lemire's multiply-shift; bias is < 2^-64 * bound, irrelevant here.
  const auto x = next();
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * bound) >> 64);
}

std::int64_t SplitMix64::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

PoissonArrivals::PoissonArrivals(double rate_per_sec,
                                 std::uint64_t seed) noexcept
    : rate_(rate_per_sec), rng_(seed) {}

double PoissonArrivals::next_gap_sec() noexcept {
  // Inverse-transform sampling of the exponential distribution.  Guard the
  // logarithm away from log(0).
  double u = rng_.next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate_;
}

std::vector<double> PoissonArrivals::arrival_times(std::size_t n) noexcept {
  std::vector<double> times;
  times.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += next_gap_sec();
    times.push_back(t);
  }
  return times;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent, std::uint64_t seed)
    : n_(n), rng_(seed) {
  assert(n > 0);
  cumulative_.reserve(n);
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), exponent);
    cumulative_.push_back(total);
  }
  for (auto& c : cumulative_) c /= total;
  // The last mass is total / total, exactly 1, so every cut finds a rank.
  assert(n <= UINT32_MAX);
  cuts_.reserve(kCuts + 1);
  std::uint32_t index = 0;
  for (std::size_t j = 0; j <= kCuts; ++j) {
    const double threshold = static_cast<double>(j) / kCuts;
    while (cumulative_[index] < threshold) ++index;
    cuts_.push_back(index);
  }
}

std::size_t ZipfSampler::sample() noexcept { return sample(rng_); }

std::size_t ZipfSampler::rank_at(double u) const noexcept {
  assert(u >= 0.0 && u < 1.0);
  // j / kCuts <= u < (j + 1) / kCuts, so the first mass >= u lies between
  // the first mass >= j / kCuts and the first mass >= (j + 1) / kCuts.
  const auto j = static_cast<std::size_t>(u * kCuts);
  std::size_t lo = cuts_[j];
  std::size_t hi = cuts_[j + 1];
  // Binary search for the first cumulative mass >= u.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cumulative_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;  // ranks are 1-based
}

LogNormalSampler::LogNormalSampler(double mu, double sigma,
                                   std::uint64_t seed) noexcept
    : mu_(mu), sigma_(sigma), rng_(seed) {}

double LogNormalSampler::sample() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return std::exp(mu_ + sigma_ * spare_);
  }
  // Box-Muller transform: two uniforms -> two independent normals.
  double u1 = rng_.next_double();
  double u2 = rng_.next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return std::exp(mu_ + sigma_ * r * std::cos(theta));
}

}  // namespace dohperf::stats
