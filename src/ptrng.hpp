// Umbrella header: includes every public module header of the ptrng
// library and documents each module namespace in one place (the
// per-header comments describe files, the namespace docs live here).
// See docs/ARCHITECTURE.md for the layer diagram and conventions.
#pragma once

/// \namespace ptrng
/// Root namespace: reproducible RNG, contracts, error hierarchy, math
/// helpers and table output shared by every module.
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/simd.hpp"
#include "common/spmc_ring.hpp"
#include "common/table.hpp"
#include "common/ziggurat.hpp"

/// \namespace ptrng::fft
/// Radix-2 FFT and window functions backing the spectral estimators.
#include "fft/fft.hpp"
#include "fft/window.hpp"

/// \namespace ptrng::stats
/// Statistical machinery: descriptive statistics, Allan-variance family,
/// Bienaymé linearity sweep, Welch PSD estimation, autocorrelation,
/// normality and hypothesis tests, special functions, regression.
#include "stats/allan.hpp"
#include "stats/autocorrelation.hpp"
#include "stats/bienayme.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
#include "stats/normality.hpp"
#include "stats/psd.hpp"
#include "stats/regression.hpp"
#include "stats/special.hpp"

/// \namespace ptrng::noise
/// Noise processes: the calibrated 1/f filter-bank flicker generator,
/// 1/f^alpha spectral synthesis as a known-spectrum reference, and the
/// sidedness-aware power-law PSD bookkeeping.
#include "noise/filter_bank.hpp"
#include "noise/psd_model.hpp"
#include "noise/spectral_synthesis.hpp"

/// \namespace ptrng::transistor
/// Device level (paper Sec. III-A): MOSFET thermal/flicker current-noise
/// PSDs, inverter delay cells, CMOS technology-node presets.
#include "transistor/inverter.hpp"
#include "transistor/mosfet.hpp"
#include "transistor/technology.hpp"

/// \namespace ptrng::oscillator
/// Period-domain ring-oscillator simulator, the gate-level chain model,
/// and the two-oscillator measurement topology of the paper's Figs. 4/6.
#include "oscillator/gate_chain.hpp"
#include "oscillator/oscillator_pair.hpp"
#include "oscillator/ring_oscillator.hpp"

/// \namespace ptrng::phase_noise
/// Hajimiri ISF, current-noise to phase-noise conversion, the phase PSD
/// b_th/f^2 + b_fl/f^3 (Eq. 10) and accumulated variance sigma^2_N
/// (Eq. 9 numeric / Eq. 11 closed form).
#include "phase_noise/conversion.hpp"
#include "phase_noise/isf.hpp"
#include "phase_noise/phase_psd.hpp"
#include "phase_noise/sigma2n.hpp"

/// \namespace ptrng::measurement
/// The s_N process (Eq. 4/8), the bit-exact differential counter of
/// Fig. 6 (Eq. 12), sigma^2_N sweep estimation with confidence
/// intervals, and the Sec.-IV coefficient extraction.
#include "measurement/calibration.hpp"
#include "measurement/counter.hpp"
#include "measurement/sigma_n_estimator.hpp"
#include "measurement/sn_process.hpp"

/// \namespace ptrng::model
/// The assembled multilevel stochastic model (Fig. 3), the legacy iid
/// models it critiques, and empirical independence verdicts (single pair
/// and parallel pair ensembles).
#include "model/ensemble.hpp"
#include "model/independence.hpp"
#include "model/legacy_models.hpp"
#include "model/multilevel_model.hpp"

/// \namespace ptrng::trng
/// Generator level: the BitSource/BitTransform/Pipeline bit-stream stack,
/// elementary and multi-ring RO-TRNGs, entropy bounds and estimators,
/// AIS 31 / SP 800-90B style health tests, post-processing, the SP
/// 800-90A conditioning/DRBG layer and the concurrent byte service.
#include "trng/ais31.hpp"
#include "trng/bit_stream.hpp"
#include "trng/cell_array.hpp"
#include "trng/conditioning.hpp"
#include "trng/continuous_health.hpp"
#include "trng/entropy.hpp"
#include "trng/ero_trng.hpp"
#include "trng/multi_ring.hpp"
#include "trng/online_test.hpp"
#include "trng/postprocess.hpp"
#include "trng/raw_export.hpp"
#include "trng/rbg_service.hpp"
#include "trng/sp80090b.hpp"

/// \namespace ptrng::attacks
/// Non-invasive frequency-injection / EM locking attacks and their
/// observable signatures on the relative jitter.
#include "attacks/injection.hpp"
