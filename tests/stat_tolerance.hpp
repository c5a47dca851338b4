// Tolerance-from-CI-width helpers for statistical assertions (ROADMAP
// "statistical-tolerance audit"). Instead of hard-coding acceptance
// bands that silently rot when a generator stream or default seed
// changes, tests derive the band from the sampling distribution of the
// statistic under H0 and an explicit z multiplier (default 5, roughly a
// 1-in-3.5M false-alarm rate per assertion).
//
// For serially-correlated streams the iid formulas underestimate the
// estimator variance; call sites pass a reduced EFFECTIVE sample size
// (n / correlation-length) and say so in a comment.
#pragma once

#include <cmath>
#include <cstddef>
#include <numbers>

namespace ptrng::testing {

/// Band half-width for a sample-variance RATIO s^2/sigma^2 formed from m
/// (effectively independent) samples: under H0 the ratio is chi^2_{m-1}
/// scaled, with sd ~ sqrt(2/(m-1)).
inline double variance_ratio_tol(std::size_t m, double z = 5.0) {
  return z * std::sqrt(2.0 / (static_cast<double>(m) - 1.0));
}

/// Band half-width for the difference of two means, each over m_a and
/// m_b independent replicates (seeds, devices) with sample stddevs sd_a
/// and sd_b: sd of the difference = sqrt(sd_a^2/m_a + sd_b^2/m_b). The
/// replicate spread carries whatever serial correlation each replicate
/// has, so no effective-sample-size guess is needed.
inline double mean_difference_tol(double sd_a, std::size_t m_a, double sd_b,
                                  std::size_t m_b, double z = 5.0) {
  return z * std::sqrt(sd_a * sd_a / static_cast<double>(m_a) +
                       sd_b * sd_b / static_cast<double>(m_b));
}

/// Band half-width for the empirical bias |p_hat - 1/2| of n fair bits:
/// sd(p_hat) = 0.5/sqrt(n).
inline double bias_tol(std::size_t n, double z = 5.0) {
  return z * 0.5 / std::sqrt(static_cast<double>(n));
}

/// Band half-width for an empirical proportion with true value p over n
/// trials: sd = sqrt(p(1-p)/n).
inline double proportion_tol(std::size_t n, double p, double z = 5.0) {
  return z * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

/// Band half-width for a COUNT with success probability p over n trials:
/// sd = sqrt(n p (1-p)).
inline double count_tol(std::size_t n, double p, double z = 5.0) {
  return z * std::sqrt(static_cast<double>(n) * p * (1.0 - p));
}

/// Band half-width for a single autocorrelation coefficient of n iid
/// samples: sd ~ 1/sqrt(n) (Bartlett).
inline double acf_tol(std::size_t n, double z = 5.0) {
  return z / std::sqrt(static_cast<double>(n));
}

/// Band half-width for the sample COVARIANCE of n iid jointly Gaussian
/// pairs with variances var_a, var_b and covariance cov around cov:
/// Var(ab) = var_a var_b + cov^2 per pair (Isserlis), so
/// sd = sqrt((var_a var_b + cov^2) / n).
inline double covariance_tol(std::size_t n, double var_a, double var_b,
                             double cov, double z = 5.0) {
  return z * std::sqrt((var_a * var_b + cov * cov) / static_cast<double>(n));
}

/// Regression-CI helper: RELATIVE band half-width for a fitted
/// coefficient given its 1-sigma standard error (stats::FitResult /
/// JitterCalibration expose these): z * inflation * se / |coef|.
/// When the fit's residuals are serially correlated (sigma^2_N sweeps
/// reuse one jitter stream across overlapping windows), the nominal SE
/// underestimates the true sampling error; call sites pass an explicit
/// `inflation` factor and say why in a comment.
inline double regression_coef_tol(double coef, double se, double z = 5.0,
                                  double inflation = 1.0) {
  return z * inflation * se / std::abs(coef);
}

/// Band half-width for the per-bit plug-in block-Shannon entropy of an
/// IDEAL (uniform) source, blocks of `block_bits` over n_bits total:
/// with K = 2^L cells and m = n/L blocks, 2 m ln2 (L - H_block) is
/// asymptotically chi^2_{K-1}; the (sqrt(K-1) + z)^2 envelope bounds its
/// z-equivalent quantile.
inline double block_entropy_tol(std::size_t n_bits, std::size_t block_bits,
                                double z = 5.0) {
  const double l = static_cast<double>(block_bits);
  const double m = static_cast<double>(n_bits) / l;
  const double k1 = std::pow(2.0, l) - 1.0;
  const double q = std::sqrt(k1) + z;
  return q * q / (2.0 * m * std::numbers::ln2 * l);
}

/// Band half-width for the per-bit plug-in min-entropy of an IDEAL
/// source over `block_bits` blocks: the max-cell frequency deviates by
/// ~z * sd(p_hat) relative to p = 2^-L, and d(-log2 p)/dp = 1/(p ln 2).
inline double min_entropy_tol(std::size_t n_bits, std::size_t block_bits,
                              double z = 5.0) {
  const double l = static_cast<double>(block_bits);
  const double m = static_cast<double>(n_bits) / l;
  const double p = std::pow(2.0, -l);
  const double sd_rel = std::sqrt((1.0 - p) / (p * m));
  return z * sd_rel / (std::numbers::ln2 * l);
}

/// Band half-width for the k-th raw sample moment (k = 1..4) of n iid
/// N(0,1) draws around its true value {0, 1, 0, 3}: the per-sample
/// variances of x^k are Var(x)=1, Var(x^2)=2, Var(x^3)=15, Var(x^4)=96
/// (central moments of the standard normal up to E x^8 = 105).
inline double normal_raw_moment_tol(std::size_t n, int k, double z = 5.0) {
  constexpr double kVar[4] = {1.0, 2.0, 15.0, 96.0};
  return z * std::sqrt(kVar[k - 1] / static_cast<double>(n));
}

/// Band half-width for the plug-in binary entropy h(p_hat) around a true
/// probability p != 1/2 estimated from n trials (delta method):
/// sd = |log2((1-p)/p)| * sqrt(p(1-p)/n).
inline double binary_entropy_tol(std::size_t n, double p, double z = 5.0) {
  const double slope = std::abs(std::log2((1.0 - p) / p));
  return z * slope * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

}  // namespace ptrng::testing
