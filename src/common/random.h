#ifndef FEWSTATE_COMMON_RANDOM_H_
#define FEWSTATE_COMMON_RANDOM_H_

#include <cstdint>

namespace fewstate {

/// \brief SplitMix64 step: maps a 64-bit seed to a well-mixed 64-bit value.
///
/// Used both to expand user seeds into generator state and as a cheap
/// stateless mixing function.
uint64_t SplitMix64(uint64_t* state);

/// \brief Stateless mix of a 64-bit value (one SplitMix64 round).
uint64_t Mix64(uint64_t x);

/// \brief Xoshiro256** pseudo-random generator.
///
/// Fast, high-quality, 256-bit state. All randomised components in the
/// library draw from this generator so runs are reproducible from a single
/// 64-bit seed. Not cryptographic.
class Rng {
 public:
  /// \brief Constructs a generator whose state is expanded from `seed` via
  /// SplitMix64 (any seed, including 0, is valid).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// \brief Next raw 64-bit output.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// \brief Uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t UniformInt(uint64_t bound);

  /// \brief Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t UniformRange(uint64_t lo, uint64_t hi);

  /// \brief Uniform double in [0, 1) with 53 random bits.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// \brief Uniform double in (0, 1) — never returns exactly 0 (safe for
  /// log()).
  double UniformDoublePositive();

  /// \brief Bernoulli trial: true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// \brief Geometric "level": number of consecutive heads when flipping
  /// fair coins, i.e. returns L >= 0 with P(L >= k) = 2^-k. Capped at 63.
  ///
  /// Used for nested subsampling: an element belongs to level `x` substream
  /// (rate 2^{1-x}) iff Level() >= x - 1.
  int GeometricLevel();

  /// \brief Standard normal variate (Box-Muller, non-cached variant).
  double Normal();

  /// \brief Derives an independent child generator; `stream_id` selects the
  /// child deterministically.
  Rng Fork(uint64_t stream_id) const;

  /// \brief The seed this generator was constructed from.
  uint64_t seed() const { return seed_; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  uint64_t seed_;
};

/// \brief A pseudorandom bijection on [0, n), evaluable position by
/// position in O(1) memory.
///
/// A 4-round Feistel network over the smallest even-width power-of-two
/// domain covering n, cycle-walked down to [0, n) (the domain is < 4n, so
/// the expected walk is < 4 encryptions). This is what makes a *lazy*
/// permutation stream possible: Fisher–Yates needs the whole array
/// resident, a Feistel permutation needs four round keys. Not
/// cryptographic, and a different permutation distribution than a uniform
/// shuffle — adequate for all-distinct workloads and adversarial
/// instances, not for statistical tests of shuffle uniformity.
class FeistelPermutation {
 public:
  /// \brief Bijection on [0, n) keyed by `seed` (n == 0 is treated as 1;
  /// n must be < 2^62).
  FeistelPermutation(uint64_t n, uint64_t seed);

  /// \brief The image of `x` (requires x < n()).
  uint64_t Apply(uint64_t x) const;

  uint64_t n() const { return n_; }

 private:
  uint64_t Encrypt(uint64_t x) const;

  uint64_t n_;
  unsigned half_bits_;
  uint64_t mask_;
  uint64_t keys_[4];
};

/// \brief Samples a variate from the standard p-stable distribution using
/// the Chambers–Mallows–Stuck formula (paper §3.1, [Nol03]):
///
///   X = sin(p·θ) / cos(θ)^{1/p} · ( cos(θ(1−p)) / ln(1/r) )^{(1−p)/p}
///
/// with θ ~ Uni(−π/2, π/2) and r ~ Uni(0,1). For p = 2 this is (up to
/// scale) Gaussian; for p = 1 Cauchy.
///
/// \param p stability parameter, p in (0, 2].
/// \param theta uniform variate in (−π/2, π/2).
/// \param r uniform variate in (0, 1).
double PStableFromUniform(double p, double theta, double r);

/// \brief Convenience overload drawing θ and r from `rng`.
double SamplePStable(double p, Rng* rng);

}  // namespace fewstate

#endif  // FEWSTATE_COMMON_RANDOM_H_
