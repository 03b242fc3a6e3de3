#include "core/entropy_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace fewstate {

EntropyEstimator::EntropyEstimator(const EntropyEstimatorOptions& options)
    : options_(options),
      rng_(Mix64(options.seed ^ 0xe27a0b9c8d7f6e5dULL)) {
  const uint64_t m = options_.stream_length_hint;
  const double eps = options_.eps;

  const size_t k = options_.degree > 0 ? options_.degree : 2;
  if (options_.use_hno08_nodes) {
    nodes_ = EntropyInterpolationPoints(static_cast<int>(k), m);
  } else {
    // Symmetric Chebyshev window around p = 1. Wider than Lemma 3.7's
    // ell: the derivative of the interpolant amplifies node noise by
    // ~1/span, and at laptop-scale row counts that dominates the Taylor
    // truncation the tiny HNO08 window optimises for.
    const double span = options_.node_span > 0.0 ? options_.node_span : 0.25;
    for (double z : ChebyshevNodes(static_cast<int>(k))) {
      nodes_.push_back(1.0 + span * z);
    }
  }

  const size_t rows =
      options_.rows > 0
          ? options_.rows
          : static_cast<size_t>(std::max(48.0, std::ceil(8.0 / eps)));
  const double a =
      options_.morris_a > 0.0 ? options_.morris_a : 1e-3;

  // All node sketches share one seed, hence identical (theta, r) hash
  // tables: common random numbers across nodes (see class comment).
  node_sketches_.reserve(nodes_.size());
  const uint64_t sketch_seed = Mix64(options_.seed + 0x517e);
  for (double p : nodes_) {
    node_sketches_.push_back(std::make_unique<StableSketch>(
        p, rows, sketch_seed, StableSketch::CounterMode::kMorris, a,
        &accountant_));
  }
  // Length counter: (1+~1%) accuracy costs only O(log m / 2e-4) changes.
  length_counter_ =
      std::make_unique<MorrisCounter>(&accountant_, &rng_, 2e-4);

  // Calibration medians for every node from ONE shared sample set: the
  // calibration error is then a smooth function of p and cancels in the
  // divided differences (independent per-node Monte Carlo seeds would act
  // as a deterministic slope bias amplified by 1/span).
  constexpr int kCalibrationSamples = 120000;
  Rng cal_rng(0xca11b2a7e5eedULL);
  std::vector<std::vector<double>> samples(nodes_.size());
  for (auto& s : samples) s.reserve(kCalibrationSamples);
  for (int i = 0; i < kCalibrationSamples; ++i) {
    double u_theta = cal_rng.UniformDouble();
    const double u_r = cal_rng.UniformDoublePositive();
    if (u_theta <= 0.0) u_theta = 0x1.0p-53;
    if (u_theta >= 1.0) u_theta = 1.0 - 0x1.0p-53;
    const double theta = (u_theta - 0.5) * M_PI;
    for (size_t q = 0; q < nodes_.size(); ++q) {
      samples[q].push_back(
          std::fabs(PStableFromUniform(nodes_[q], theta, u_r)));
    }
  }
  node_calibration_.reserve(nodes_.size());
  for (auto& s : samples) node_calibration_.push_back(Median(std::move(s)));
}

Status EntropyEstimator::Create(const EntropyEstimatorOptions& options,
                                std::unique_ptr<EntropyEstimator>* out) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  *out = std::make_unique<EntropyEstimator>(options);
  return Status::OK();
}

void EntropyEstimator::Update(Item item) {
  accountant_.BeginUpdate();
  for (auto& sketch : node_sketches_) sketch->Update(item);
  length_counter_->Increment();
}

std::vector<double> EntropyEstimator::NodeMomentEstimates() const {
  std::vector<double> out;
  out.reserve(node_sketches_.size());
  for (size_t q = 0; q < node_sketches_.size(); ++q) {
    const double lp =
        node_sketches_[q]->MedianAbsRowValue() / node_calibration_[q];
    out.push_back(PowP(lp, nodes_[q]));
  }
  return out;
}

double EntropyEstimator::EstimateEntropy() const {
  const double m_hat = std::max(2.0, length_counter_->Estimate());
  // phi(p) = log2 F_p = p * log2 ||f||_p with ||f||_p from the CRN-
  // calibrated node sketches; H = log2(m) - phi'(1).
  std::vector<double> phi;
  phi.reserve(nodes_.size());
  for (size_t q = 0; q < nodes_.size(); ++q) {
    const double lp = std::max(
        1e-12, node_sketches_[q]->MedianAbsRowValue() / node_calibration_[q]);
    phi.push_back(nodes_[q] * std::log2(lp));
  }
  const double dphi = LagrangeInterpolateDerivative(nodes_, phi, 1.0);
  const double h = std::log2(m_hat) - dphi;
  // Entropy of a length-m stream over universe n lies in [0, log2 min(n,m)].
  const double h_max = std::log2(static_cast<double>(
      std::min<uint64_t>(options_.universe, options_.stream_length_hint)));
  return std::clamp(h, 0.0, std::max(1.0, h_max));
}

}  // namespace fewstate
