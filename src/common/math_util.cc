#include "common/math_util.h"

#include <algorithm>
#include <cmath>

namespace fewstate {

int FloorLog2(uint64_t x) {
  if (x == 0) return -1;
  return 63 - __builtin_clzll(x);
}

int CeilLog2(uint64_t x) {
  if (x <= 1) return 0;
  return FloorLog2(x - 1) + 1;
}

uint64_t NextPowerOfTwo(uint64_t x) {
  if (x <= 1) return 1;
  int c = CeilLog2(x);
  if (c >= 63) return 1ULL << 63;
  return 1ULL << c;
}

int DyadicBucket(uint64_t age) {
  if (age <= 1) return 0;
  return FloorLog2(age);
}

double PowP(double x, double p) {
  if (x == 0.0) return (p == 0.0) ? 1.0 : 0.0;
  return std::pow(x, p);
}

double Log2(double x) { return std::log2(x); }

std::vector<double> ChebyshevNodes(int k) {
  std::vector<double> nodes(k + 1);
  for (int i = 0; i <= k; ++i) {
    nodes[i] = std::cos(static_cast<double>(i) * M_PI / k);
  }
  return nodes;
}

std::vector<double> EntropyInterpolationPoints(int k, uint64_t m) {
  const double logm = std::max(1.0, std::log2(static_cast<double>(m)));
  const double ell = 1.0 / (2.0 * (k + 1) * logm);
  const double k2 = static_cast<double>(k) * k;
  std::vector<double> points;
  points.reserve(k + 1);
  for (double z : ChebyshevNodes(k)) {
    const double g = ell * (k2 * (z - 1.0) + 1.0) / (2.0 * k2 + 1.0);
    points.push_back(1.0 + g);
  }
  return points;
}

double LagrangeInterpolate(const std::vector<double>& xs,
                           const std::vector<double>& ys, double x) {
  const size_t n = xs.size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double basis = 1.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      basis *= (x - xs[j]) / (xs[i] - xs[j]);
    }
    total += ys[i] * basis;
  }
  return total;
}

double LagrangeInterpolateDerivative(const std::vector<double>& xs,
                                     const std::vector<double>& ys, double x) {
  // d/dx of the Lagrange basis L_i(x) = sum over j != i of
  // (1/(x_i - x_j)) * prod over l != i, l != j of (x - x_l)/(x_i - x_l).
  const size_t n = xs.size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dbasis = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double term = 1.0 / (xs[i] - xs[j]);
      for (size_t l = 0; l < n; ++l) {
        if (l == i || l == j) continue;
        term *= (x - xs[l]) / (xs[i] - xs[l]);
      }
      dbasis += term;
    }
    total += ys[i] * dbasis;
  }
  return total;
}

double Median(std::vector<double> values) {
  return MedianInPlace(values.data(), values.size());
}

double MedianInPlace(double* values, size_t n) {
  if (n == 0) return 0.0;
  const size_t mid = n / 2;
  std::nth_element(values, values + mid, values + n);
  const double hi = values[mid];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(values, values + mid);
  return 0.5 * (lo + hi);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double FitLogLogSlope(const std::vector<double>& xs,
                      const std::vector<double>& ys) {
  const size_t n = std::min(xs.size(), ys.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

}  // namespace fewstate
