#ifndef FEWSTATE_COMMON_MATH_UTIL_H_
#define FEWSTATE_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fewstate {

/// \brief floor(log2(x)) for x >= 1; returns -1 for x == 0.
int FloorLog2(uint64_t x);

/// \brief ceil(log2(x)) for x >= 1; returns 0 for x in {0, 1}.
int CeilLog2(uint64_t x);

/// \brief Smallest power of two >= x (x >= 1). Saturates at 2^63.
uint64_t NextPowerOfTwo(uint64_t x);

/// \brief Dyadic age bucket: the integer z >= 0 with age in [2^z, 2^{z+1}),
/// and 0 for age in {0, 1}. Used by SampleAndHold counter maintenance,
/// which compares only counters of similar age (paper §2.1).
int DyadicBucket(uint64_t age);

/// \brief x^p for non-negative real x and real p, with 0^0 defined as 1 and
/// 0^p = 0 for p > 0. Thin wrapper so call sites read as math.
double PowP(double x, double p);

/// \brief Natural-log helper: log2 of a positive value.
double Log2(double x);

/// \brief Chebyshev nodes cos(i*pi/k) for i = 0..k (k+1 values).
std::vector<double> ChebyshevNodes(int k);

/// \brief The HNO08 entropy interpolation points (paper Lemma 3.7):
/// p_i = 1 + g(cos(i*pi/k)) with g(z) = ell*(k^2*(z-1)+1)/(2k^2+1) and
/// ell = 1/(2(k+1)*log2(m)). All points lie in (1-ell, 1+ell], none equals
/// exactly 1 for k >= 1.
///
/// \param k interpolation degree (k+1 points returned).
/// \param m stream length (m >= 2).
std::vector<double> EntropyInterpolationPoints(int k, uint64_t m);

/// \brief Polynomial interpolation through (x_i, y_i) with distinct x_i,
/// evaluated at `x` using Lagrange's formula (numerically adequate for the
/// tightly clustered Chebyshev nodes used here, k <= 16).
double LagrangeInterpolate(const std::vector<double>& xs,
                           const std::vector<double>& ys, double x);

/// \brief Derivative at `x` of the interpolating polynomial through
/// (x_i, y_i). Used by the entropy estimator: H = log2(m) - phi'(1) where
/// phi(p) = log2(F_p).
double LagrangeInterpolateDerivative(const std::vector<double>& xs,
                                     const std::vector<double>& ys, double x);

/// \brief Median of a vector (averaging the two middle elements for even
/// sizes). The input is copied; empty input returns 0.
double Median(std::vector<double> values);

/// \brief `Median` of `values[0, n)` without a copy: reorders the range in
/// place and returns the same value bitwise.
double MedianInPlace(double* values, size_t n);

/// \brief Arithmetic mean; empty input returns 0.
double Mean(const std::vector<double>& values);

/// \brief Least-squares slope of log(y) vs log(x) over paired samples;
/// used by benches to fit empirical scaling exponents. Requires >= 2
/// points, all positive.
double FitLogLogSlope(const std::vector<double>& xs,
                      const std::vector<double>& ys);

}  // namespace fewstate

#endif  // FEWSTATE_COMMON_MATH_UTIL_H_
