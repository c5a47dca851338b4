// Batch noise synthesis from an arbitrary target PSD: shape complex white
// noise in the frequency domain and inverse-FFT. Produces one periodic
// realization — ideal for validating estimators against a *known* spectrum
// and for generating phase processes with exotic PSDs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "noise/sampler_policy.hpp"

namespace ptrng::noise {

/// Generates n samples (n rounded up to a power of two) of a real,
/// zero-mean Gaussian process whose two-sided PSD is `psd_two_sided(f)`
/// [unit^2/Hz], sampled at fs. The DC bin is zeroed. `sampler` selects
/// the sampler policy (docs/ARCHITECTURE.md §5 "Sampler policy");
/// Polar reproduces the pre-PR-5 realizations.
[[nodiscard]] std::vector<double> synthesize_from_psd(
    const std::function<double(double)>& psd_two_sided, double fs,
    std::size_t n, std::uint64_t seed, SamplerPolicy sampler = {});

}  // namespace ptrng::noise
