// Deterministic pseudo-random number generation and the distributions used by the
// workload models.
//
// Every stochastic element of the system (trace generation, lottery scheduling,
// failure injection, network jitter) draws from an explicitly seeded Rng so that runs
// are reproducible. The generator is xoshiro256**, seeded via splitmix64.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sns {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform random 64-bit value.
  uint64_t Next();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box-Muller (cached pair).
  double Normal(double mean, double stddev);

  // Poisson-distributed count with the given mean (Knuth for small means, normal
  // approximation above 60).
  int64_t Poisson(double mean);

  // Log-normal parameterized by the underlying normal's mu and sigma.
  double LogNormal(double mu, double sigma);

  // Bounded Pareto on [lo, hi) with shape alpha > 0. Heavy-tailed; used for
  // self-similar ON/OFF burst modeling.
  double BoundedPareto(double alpha, double lo, double hi);

  // Zipf-like rank selection over n items with skew s (s=0 is uniform). Returns a
  // rank in [0, n). One draw of ZipfDistribution(n, s); callers that draw many
  // ranks of the same (n, s) hold a ZipfDistribution instead.
  int64_t Zipf(int64_t n, double s);

  // Picks an index in [0, weights.size()) with probability proportional to weight.
  // Zero or negative weights are treated as zero. If all weights are zero, picks
  // uniformly. This is the primitive behind lottery scheduling.
  size_t WeightedIndex(const std::vector<double>& weights);

  // Derives an independent child generator; used to give each component its own
  // stream so adding draws in one place does not perturb another.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// Zipf-like ranks over n items with skew s, by rejection-inversion of the
// continuous envelope. The constructor computes the per-(n, s) constants once;
// each Sample is O(1) and consumes the same draws as Rng::Zipf(n, s).
class ZipfDistribution {
 public:
  ZipfDistribution(int64_t n, double s);

  // A rank in [0, n).
  int64_t Sample(Rng* rng) const;

 private:
  double H(double x) const;
  double HInverse(double y) const;

  int64_t n_;
  double s_;
  double one_minus_s_;
  bool log_branch_;  // s == 1: H is log.
  double hn_ = 0;    // H(n + 0.5).
  double h1_ = 0;    // H(1.5) - 1.
};

}  // namespace sns

#endif  // SRC_UTIL_RNG_H_
