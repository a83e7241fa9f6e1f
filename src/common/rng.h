#ifndef WCOP_COMMON_RNG_H_
#define WCOP_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace wcop {

/// Deterministic random source used throughout the library.
///
/// Every stochastic component (pivot selection, requirement assignment, the
/// synthetic data generator, random points inside uncertainty disks) takes an
/// Rng& so experiments are reproducible from a single seed. The engine is
/// mt19937_64; helper methods mirror the distributions the paper uses.
/// SplitMix64 finalizer over `seed ^ stream`: derives decorrelated child
/// seeds for independent random streams (one Rng per cluster/worker) from a
/// single experiment seed. Deterministic and order-free, so parallel and
/// serial executions that seed per-item streams this way draw identical
/// values regardless of scheduling.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed ^ (stream + 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform real in [lo, hi).
  double UniformReal(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard-normal draw scaled to the given mean and stddev; stddev 0
  /// returns `mean` (std::normal_distribution requires stddev > 0). For
  /// stddev > 0 the value and the engine's advance are bit-identical to
  /// normal_distribution(mean, stddev), which evaluates the same
  /// z * stddev + mean.
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> dist(0.0, 1.0);
    return dist(engine_) * stddev + mean;
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  size_t UniformIndex(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace wcop

#endif  // WCOP_COMMON_RNG_H_
