// Non-invasive attacks on RO-based TRNGs, as motivated in the paper's
// introduction:
//  * frequency injection through the power/clock network
//    (Markettos & Moore, CHES 2009 — paper ref [3]);
//  * contactless EM harmonic injection (Bayon et al., COSADE 2012 — [4]).
//
// The injected periodic signal couples into every ring and partially
// LOCKS it. Two observable effects result, and both are modeled:
//
//  1. the independent thermal phase diffusion collapses by the locking
//     factor:            b_th -> b_th * (1 - coupling)^2;
//  2. each ring acquires a deterministic frequency beat at the offset
//     between the injected tone and ITS OWN natural frequency:
//         df/f = depth * sin(2 pi (f_injected - f_osc) t)
//     — because nominally "identical" rings differ by their mismatch,
//     the two beats differ, leaving a large DIFFERENTIAL deterministic
//     component in the relative jitter. This is the signature the
//     literature actually detects (and what the embedded thermal-noise
//     test sees as variance inflation).
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "oscillator/ring_oscillator.hpp"
#include "trng/ero_trng.hpp"

namespace ptrng::attacks {

/// Parameters of a periodic-injection attack.
struct InjectionAttack {
  /// Locking strength in [0, 1): 0 = no attack, ~0.9 = strong lock
  /// (Markettos reports near-total entropy collapse at strong coupling).
  double coupling = 0.5;
  /// Absolute frequency of the injected tone [Hz]; 0 means "0.05% above
  /// the victim's nominal f0" at application time.
  double f_injected = 0.0;
  /// Deterministic frequency-modulation depth (fraction of f0);
  /// 0 disables the beat (pure-suppression what-if).
  double modulation_depth = 1e-4;
  /// Injection-locking (Adler) entrainment in [0, 1]: each ring's actual
  /// frequency is pulled this fraction of the way onto the injected
  /// tone, and the in-band phase noise — INCLUDING flicker — is
  /// suppressed by (1 - pull)^2, because an entrained phase tracks the
  /// tone instead of wandering. 0 keeps the legacy weak-coupling model
  /// (beat + thermal suppression only, flicker untouched); near 1 is
  /// the Markettos full-lock regime where the bit stream goes static —
  /// the failure mode the SP 800-90B §4.4 continuous tests exist for.
  double frequency_pull = 0.0;

  /// Config transform: the attacked oscillator's suppressed noise budget
  /// (and, when frequency_pull > 0, its entrained frequency).
  [[nodiscard]] oscillator::RingOscillatorConfig apply(
      oscillator::RingOscillatorConfig config) const;

  /// The absolute injected-tone frequency for THIS victim config:
  /// f_injected, or the default "0.05% above nominal" tone.
  [[nodiscard]] double tone_frequency(
      const oscillator::RingOscillatorConfig& config) const;

  /// The deterministic beat for THIS oscillator (beat frequency =
  /// |tone - f_actual| of the config, depth modulation_depth), for
  /// RingOscillator::set_modulation().
  [[nodiscard]] oscillator::SinusoidalModulation modulation_for(
      const oscillator::RingOscillatorConfig& config) const;
};

/// Convenience: construct an attacked oscillator (suppression + beat).
[[nodiscard]] oscillator::RingOscillator make_attacked_oscillator(
    const oscillator::RingOscillatorConfig& config,
    const InjectionAttack& attack);

/// EM harmonic injection (Bayon et al.): same locking mechanism driven at
/// a harmonic of f0; expressed as an InjectionAttack preset with stronger
/// coupling and deeper modulation.
[[nodiscard]] InjectionAttack em_harmonic_attack(double coupling = 0.8);

/// A paper-calibrated eRO-TRNG whose BOTH rings (sampled and sampling —
/// injection couples into the whole die) are under `attack`: noise
/// budget suppressed by the locking factor and the deterministic beat
/// installed per ring. Bit-level twin of make_attacked_oscillator, for
/// pointing the live continuous-health engine at an attacked stream.
[[nodiscard]] trng::EroTrng make_attacked_trng(const InjectionAttack& attack,
                                               std::uint32_t divider,
                                               std::uint64_t seed = 0x7e57c0de);

/// One named attack scenario for detection-latency studies: the attack
/// parameters plus the eRO divider the victim runs at (slower sampling
/// accumulates more jitter per bit, so the same coupling is harder to
/// see at large dividers).
struct InjectionScenario {
  const char* name;
  InjectionAttack attack;
  std::uint32_t divider;
};

/// The canonical scenario grid every detection-latency test, bench and
/// example iterates (tests pin a latency budget per entry, so extend —
/// don't reorder).
[[nodiscard]] std::span<const InjectionScenario> injection_scenarios();

/// Named attack presets for grids and CLIs (the fleet campaign's attack
/// axis). "none" returns nullopt (healthy device); the others map onto
/// the locking regimes of injection_scenarios():
///   em_weak   — EM harmonic injection at coupling 0.3, no entrainment;
///   em_strong — EM harmonic injection at coupling 0.8 with partial
///               frequency pull (0.9): in-band noise mostly suppressed;
///   lock      — Markettos-style near-total lock (pull 0.98): the raw
///               stream goes static, the SP 800-90B repetition-count
///               test's textbook failure.
/// Throws DataError on an unknown name.
[[nodiscard]] std::optional<InjectionAttack> attack_by_name(
    std::string_view name);

/// The names attack_by_name accepts, grid-expansion order ("none" first).
[[nodiscard]] std::span<const char* const> attack_names();

}  // namespace ptrng::attacks
