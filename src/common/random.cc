#include "common/random.h"

#include <cmath>

namespace fewstate {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(&s);
}

FeistelPermutation::FeistelPermutation(uint64_t n, uint64_t seed)
    : n_(n == 0 ? 1 : n) {
  // Smallest even-width domain 2^(2k) >= n, so the cycle-walk below visits
  // an expected < 4 out-of-range points per Apply.
  half_bits_ = 1;
  while (half_bits_ < 31 && (uint64_t{1} << (2 * half_bits_)) < n_) {
    ++half_bits_;
  }
  mask_ = (uint64_t{1} << half_bits_) - 1;
  uint64_t sm = seed ^ 0x6a09e667f3bcc909ULL;
  for (uint64_t& key : keys_) key = SplitMix64(&sm);
}

uint64_t FeistelPermutation::Encrypt(uint64_t x) const {
  uint64_t left = x >> half_bits_;
  uint64_t right = x & mask_;
  for (uint64_t key : keys_) {
    const uint64_t next_right = left ^ (Mix64(right ^ key) & mask_);
    left = right;
    right = next_right;
  }
  return (left << half_bits_) | right;
}

uint64_t FeistelPermutation::Apply(uint64_t x) const {
  // Cycle-walk: the Feistel network is a bijection on the power-of-two
  // domain; re-encrypting until the image lands inside [0, n) restricts it
  // to a bijection on [0, n).
  do {
    x = Encrypt(x);
  } while (x >= n_);
  return x;
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  s_[0] = SplitMix64(&sm);
  s_[1] = SplitMix64(&sm);
  s_[2] = SplitMix64(&sm);
  s_[3] = SplitMix64(&sm);
  // Xoshiro state must not be all-zero; SplitMix64 of any seed never yields
  // four zero words, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

uint64_t Rng::UniformRange(uint64_t lo, uint64_t hi) {
  return lo + UniformInt(hi - lo + 1);
}

double Rng::UniformDoublePositive() {
  double u;
  do {
    u = UniformDouble();
  } while (u == 0.0);
  return u;
}

int Rng::GeometricLevel() {
  int level = 0;
  while (level < 63) {
    uint64_t bits = Next();
    if (bits != ~0ULL) {
      // Count trailing ones of this word (each one-bit is a "head").
      int runs = __builtin_ctzll(~bits);
      return level + runs;
    }
    level += 64;
  }
  return 63;
}

double Rng::Normal() {
  double u1 = UniformDoublePositive();
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng Rng::Fork(uint64_t stream_id) const {
  return Rng(Mix64(seed_ ^ Mix64(stream_id + 0x632be59bd9b4e019ULL)));
}

double PStableFromUniform(double p, double theta, double r) {
  // The CMS formula is continuous in p on (0, 2]: at p = 1 the exponent
  // (1-p)/p vanishes and the expression reduces to tan(theta) (Cauchy); at
  // p = 2 it reduces to 2 sin(theta) sqrt(-ln r), which is N(0, 2).
  //
  // At p = 1/2 the tail exponent (1-p)/p is 1, taken exactly: pow(x, 1)
  // == x because x is representable and glibc's pow errs by under 1 ulp.
  // The 1/p exponent stays a pow call: pow(c, 2.0) and pow(c, 0.5) are
  // not always c*c and sqrt(c).
  const double denom = std::pow(std::cos(theta), 1.0 / p);
  const double exponent = (1.0 - p) / p;
  const double lead_arg = p * theta;
  const double tail_arg = theta * (1.0 - p);
  double sin_lead;
  double cos_tail;
  if (lead_arg == tail_arg) {
    // p = 1/2: one argument, so one sincos (glibc computes it with the
    // same kernels as sin and cos, to the same bits).
    sincos(lead_arg, &sin_lead, &cos_tail);
  } else {
    sin_lead = std::sin(lead_arg);
    cos_tail = std::cos(tail_arg);
  }
  const double lead = sin_lead / denom;
  const double base = cos_tail / -std::log(r);
  return lead * (exponent == 1.0 ? base : std::pow(base, exponent));
}

double SamplePStable(double p, Rng* rng) {
  double theta;
  do {
    theta = (rng->UniformDouble() - 0.5) * M_PI;
  } while (theta == -0.5 * M_PI);  // keep cos(theta) > 0
  const double r = rng->UniformDoublePositive();
  return PStableFromUniform(p, theta, r);
}

}  // namespace fewstate
