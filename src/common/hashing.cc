#include "common/hashing.h"

namespace fewstate {

namespace {

// Multiplies a, b < 2^61 - 1 modulo the Mersenne prime 2^61 - 1.
inline uint64_t MulMod(uint64_t a, uint64_t b) {
  __uint128_t prod = static_cast<__uint128_t>(a) * b;
  uint64_t lo = static_cast<uint64_t>(prod & PolynomialHash::kPrime);
  uint64_t hi = static_cast<uint64_t>(prod >> 61);
  uint64_t r = lo + hi;
  if (r >= PolynomialHash::kPrime) r -= PolynomialHash::kPrime;
  return r;
}

inline uint64_t AddMod(uint64_t a, uint64_t b) {
  uint64_t r = a + b;
  if (r >= PolynomialHash::kPrime) r -= PolynomialHash::kPrime;
  return r;
}

}  // namespace

PolynomialHash::PolynomialHash(int independence, uint64_t seed) {
  if (independence < 1) independence = 1;
  Rng rng(Mix64(seed ^ 0x8f14e45fceea167aULL));
  coeffs_.resize(independence);
  for (auto& c : coeffs_) {
    c = rng.Next() % kPrime;
  }
  // Leading coefficient nonzero keeps the polynomial degree exact.
  if (coeffs_.size() > 1 && coeffs_.back() == 0) coeffs_.back() = 1;
}

uint64_t PolynomialHash::Hash(uint64_t x) const {
  // Fold the input into the field first.
  uint64_t xf = x % kPrime;
  uint64_t acc = 0;
  for (size_t i = coeffs_.size(); i-- > 0;) {
    acc = AddMod(MulMod(acc, xf), coeffs_[i]);
  }
  return acc;
}

void PolynomialHash::HashBatch(const uint64_t* items, size_t n,
                               uint64_t* out) const {
  if (coeffs_.size() == 2) {
    // Degree-1 fast path: h = a + b*x. No cross-item dependencies, so the
    // 128-bit multiply / Mersenne fold chain software-pipelines across
    // items.
    const uint64_t a = coeffs_[0];
    const uint64_t b = coeffs_[1];
#pragma omp simd
    for (size_t i = 0; i < n; ++i) {
      const uint64_t xf = items[i] % kPrime;
      out[i] = AddMod(MulMod(b, xf), a);
    }
    return;
  }
  if (coeffs_.size() == 4) {
    // Degree-3 (4-wise) unroll: Horner with the leading coefficient as
    // the seed accumulator — bitwise identical to Hash()'s loop, whose
    // first iteration reduces to acc = coeffs_[3].
    const uint64_t c0 = coeffs_[0];
    const uint64_t c1 = coeffs_[1];
    const uint64_t c2 = coeffs_[2];
    const uint64_t c3 = coeffs_[3];
#pragma omp simd
    for (size_t i = 0; i < n; ++i) {
      const uint64_t xf = items[i] % kPrime;
      uint64_t acc = AddMod(MulMod(c3, xf), c2);
      acc = AddMod(MulMod(acc, xf), c1);
      out[i] = AddMod(MulMod(acc, xf), c0);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i] = Hash(items[i]);
}

uint64_t PolynomialHash::HashRange(uint64_t x, uint64_t range) const {
  __uint128_t h = Hash(x);
  return static_cast<uint64_t>((h * range) >> 61);
}

void PolynomialHash::HashRangeBatch(const uint64_t* items, size_t n,
                                    uint64_t range, uint64_t* out) const {
  HashBatch(items, n, out);
#pragma omp simd
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint64_t>(
        (static_cast<__uint128_t>(out[i]) * range) >> 61);
  }
}

void PolynomialHash::HashSignBatch(const uint64_t* items, size_t n,
                                   int8_t* out) const {
  if (coeffs_.size() == 2) {
    const uint64_t a = coeffs_[0];
    const uint64_t b = coeffs_[1];
#pragma omp simd
    for (size_t i = 0; i < n; ++i) {
      const uint64_t xf = items[i] % kPrime;
      out[i] = static_cast<int8_t>(
          2 * static_cast<int>(AddMod(MulMod(b, xf), a) & 1) - 1);
    }
    return;
  }
  if (coeffs_.size() == 4) {
    const uint64_t c0 = coeffs_[0];
    const uint64_t c1 = coeffs_[1];
    const uint64_t c2 = coeffs_[2];
    const uint64_t c3 = coeffs_[3];
#pragma omp simd
    for (size_t i = 0; i < n; ++i) {
      const uint64_t xf = items[i] % kPrime;
      uint64_t acc = AddMod(MulMod(c3, xf), c2);
      acc = AddMod(MulMod(acc, xf), c1);
      acc = AddMod(MulMod(acc, xf), c0);
      out[i] = static_cast<int8_t>(2 * static_cast<int>(acc & 1) - 1);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int8_t>(2 * static_cast<int>(Hash(items[i]) & 1) - 1);
  }
}

double PolynomialHash::HashUnit(uint64_t x) const {
  return static_cast<double>(Hash(x)) / static_cast<double>(kPrime);
}

int PolynomialHash::HashSign(uint64_t x) const {
  return 2 * static_cast<int>(Hash(x) & 1) - 1;
}

int PolynomialHash::GeometricLevel(uint64_t x, int max_level) const {
  uint64_t h = Hash(x);
  int level = 0;
  // P(h < kPrime / 2^l) ~= 2^{-l}.
  uint64_t threshold = kPrime >> 1;
  while (level < max_level && h < threshold && threshold > 0) {
    ++level;
    threshold >>= 1;
  }
  return level;
}

TabulationHash::TabulationHash(uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x4a9b3c5d2e1f6071ULL));
  for (auto& table : tables_) {
    for (auto& entry : table) {
      entry = rng.Next();
    }
  }
}

uint64_t TabulationHash::Hash(uint64_t x) const {
  uint64_t h = 0;
  for (int i = 0; i < 8; ++i) {
    h ^= tables_[i][(x >> (8 * i)) & 0xff];
  }
  return h;
}

void TabulationHash::HashBatch(const uint64_t* items, size_t n,
                               uint64_t* out) const {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = items[i];
    uint64_t h = 0;
    // Unrolled byte lookups: eight independent loads per item, so the
    // table reads of consecutive items overlap in the load pipeline.
    h ^= tables_[0][x & 0xff];
    h ^= tables_[1][(x >> 8) & 0xff];
    h ^= tables_[2][(x >> 16) & 0xff];
    h ^= tables_[3][(x >> 24) & 0xff];
    h ^= tables_[4][(x >> 32) & 0xff];
    h ^= tables_[5][(x >> 40) & 0xff];
    h ^= tables_[6][(x >> 48) & 0xff];
    h ^= tables_[7][(x >> 56) & 0xff];
    out[i] = h;
  }
}

uint64_t TabulationHash::HashRange(uint64_t x, uint64_t range) const {
  __uint128_t h = Hash(x);
  return static_cast<uint64_t>((h * range) >> 64);
}

void TabulationHash::HashRangeBatch(const uint64_t* items, size_t n,
                                    uint64_t range, uint64_t* out) const {
  HashBatch(items, n, out);
#pragma omp simd
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint64_t>(
        (static_cast<__uint128_t>(out[i]) * range) >> 64);
  }
}

double TabulationHash::HashUnit(uint64_t x) const {
  return static_cast<double>(Hash(x) >> 11) * 0x1.0p-53;
}

}  // namespace fewstate
