// Deterministic random number generation for reproducible experiments.
//
// All experiments in this repository run on a virtual clock and must be
// bit-for-bit reproducible across runs and platforms.  std::mt19937_64 is
// seeded explicitly everywhere; the distribution samplers below are
// implemented by hand (rather than via std::*_distribution) because the
// standard distributions are not guaranteed to produce identical streams
// across standard library implementations.
#pragma once

#include <cstdint>
#include <vector>

namespace dohperf::stats {

/// SplitMix64: a tiny, high-quality 64-bit PRNG used both directly and to
/// seed larger state.  Reference: Steele, Lea & Flood, "Fast Splittable
/// Pseudorandom Number Generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction
  /// (bias negligible for the bounds used here). bound must be non-zero.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

 private:
  std::uint64_t state_;
};

/// Samples exponentially distributed inter-arrival gaps, producing a Poisson
/// arrival process with the given average rate (events per second).
class PoissonArrivals {
 public:
  PoissonArrivals(double rate_per_sec, std::uint64_t seed) noexcept;

  /// Next inter-arrival gap in seconds (exponential with mean 1/rate).
  double next_gap_sec() noexcept;

  /// Convenience: absolute arrival times (seconds) for `n` events starting
  /// at time zero.
  std::vector<double> arrival_times(std::size_t n) noexcept;

 private:
  double rate_;
  SplitMix64 rng_;
};

/// Zipf-distributed ranks in [1, n]: P(rank = k) proportional to k^-s.
/// Used to model domain-name popularity (a small number of very hot names —
/// the paper observes ~25% of all queries going to just 15 names).
class ZipfSampler {
 public:
  /// Cut points in the index: cut j is the first rank whose cumulative mass
  /// reaches j / kCuts. A power of two, so u * kCuts and j / kCuts are exact.
  static constexpr std::size_t kCuts = 4096;

  ZipfSampler(std::size_t n, double exponent, std::uint64_t seed);

  /// Sample a rank in [1, n].
  std::size_t sample() noexcept;

  /// Sample using an external RNG (lets one (possibly large) cumulative
  /// table serve many deterministic streams).
  std::size_t sample(SplitMix64& rng) const noexcept {
    return rank_at(rng.next_double());
  }

  /// The first rank whose cumulative mass is >= u, for u in [0, 1): the
  /// rank a full binary search of the table finds, searched only between
  /// the two cut points around u.
  std::size_t rank_at(double u) const noexcept;

  std::size_t n() const noexcept { return n_; }

 private:
  std::size_t n_;
  std::vector<double> cumulative_;  // normalised cumulative mass
  std::vector<std::uint32_t> cuts_;  // kCuts + 1 indices into cumulative_
  SplitMix64 rng_;
};

/// Log-normal sampler; used for heavy-tailed object sizes and page
/// complexity (web-page statistics are classically log-normal).
class LogNormalSampler {
 public:
  LogNormalSampler(double mu, double sigma, std::uint64_t seed) noexcept;

  double sample() noexcept;

 private:
  double mu_;
  double sigma_;
  SplitMix64 rng_;
  // Box-Muller generates pairs; cache the spare value.
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace dohperf::stats
