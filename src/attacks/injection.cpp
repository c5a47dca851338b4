#include "attacks/injection.hpp"

#include <cmath>
#include <string>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "oscillator/oscillator_pair.hpp"

namespace ptrng::attacks {

oscillator::RingOscillatorConfig InjectionAttack::apply(
    oscillator::RingOscillatorConfig config) const {
  PTRNG_EXPECTS(coupling >= 0.0 && coupling < 1.0);
  PTRNG_EXPECTS(frequency_pull >= 0.0 && frequency_pull <= 1.0);
  const double suppression = (1.0 - coupling) * (1.0 - coupling);
  config.b_th *= suppression;
  if (frequency_pull > 0.0) {
    // Adler entrainment: the ring frequency moves frequency_pull of the
    // way onto the tone — BOTH rings converge onto the SAME frequency,
    // collapsing the differential mismatch the eRO sampler rides on —
    // and the entrained phase tracks the tone instead of diffusing, so
    // the remaining in-band noise (thermal AND flicker) shrinks by the
    // locking factor.
    const double tone_offset = tone_frequency(config) / config.f0 - 1.0;
    config.mismatch = (1.0 - frequency_pull) * config.mismatch +
                      frequency_pull * tone_offset;
    const double entrain = (1.0 - frequency_pull) * (1.0 - frequency_pull);
    config.b_th *= entrain;
    config.b_fl *= entrain;
  }
  // At frequency_pull == 0 flicker stays untouched: it is a
  // device-internal phenomenon that weak coupling barely affects, which
  // is precisely why the thermal-ratio analysis sees the attack.
  return config;
}

double InjectionAttack::tone_frequency(
    const oscillator::RingOscillatorConfig& config) const {
  // The default tone offset is deliberately a non-round multiple of f0 so
  // the beat does not alias onto a null of the second-difference filter
  // for round window lengths (see bench_attack_detection).
  return (f_injected > 0.0) ? f_injected : config.f0 * 1.000437;
}

oscillator::SinusoidalModulation InjectionAttack::modulation_for(
    const oscillator::RingOscillatorConfig& config) const {
  PTRNG_EXPECTS(modulation_depth >= 0.0);
  const double f_actual = config.f0 * (1.0 + config.mismatch);
  const double f_tone = tone_frequency(config);
  const double f_beat = std::abs(f_tone - f_actual);
  PTRNG_EXPECTS(f_beat > 0.0);
  return {modulation_depth, f_beat};
}

oscillator::RingOscillator make_attacked_oscillator(
    const oscillator::RingOscillatorConfig& config,
    const InjectionAttack& attack) {
  // The beat is computed from the ATTACKED config: under entrainment the
  // ring sits at its pulled frequency, so the residual beat is the
  // (small) remaining tone offset, not the free-running one.
  const auto attacked = attack.apply(config);
  oscillator::RingOscillator osc(attacked);
  if (attack.modulation_depth > 0.0)
    osc.set_modulation(attack.modulation_for(attacked));
  return osc;
}

trng::EroTrng make_attacked_trng(const InjectionAttack& attack,
                                 std::uint32_t divider, std::uint64_t seed) {
  // Mirrors trng::paper_trng's construction (same seeds and mismatch
  // fan), with both ring configs run through the attack.
  auto sampled = oscillator::paper_single_config(seed);
  auto sampling = oscillator::paper_single_config(seed ^ 0xabcdef9876ULL);
  sampled.mismatch = +1.5e-3;
  sampling.mismatch = -1.5e-3;
  trng::EroTrngConfig cfg;
  cfg.divider = divider;
  const auto attacked_sampled = attack.apply(sampled);
  const auto attacked_sampling = attack.apply(sampling);
  trng::EroTrng victim(attacked_sampled, attacked_sampling, cfg);
  if (attack.modulation_depth > 0.0) {
    victim.sampled().set_modulation(attack.modulation_for(attacked_sampled));
    victim.sampling().set_modulation(attack.modulation_for(attacked_sampling));
  }
  return victim;
}

std::span<const InjectionScenario> injection_scenarios() {
  // Three regimes of the Markettos/Bayon locking story, each with a
  // DIFFERENT continuous-test signature (test_continuous_health pins a
  // latency budget per entry):
  //  * freq-lock-0.98: strong power/clock injection; both rings sit on
  //    the tone, the bit stream goes static and the repetition-count
  //    test fires within its cutoff (~41 bits).
  //  * em-partial-lock-0.995: EM harmonic injection with the residual
  //    beat still wobbling the sampler; repetition-count still catches
  //    the first long dwell, ~1.2 kbit in.
  //  * total-lock-1.0: the pathological zero-noise limit — the stream
  //    is deterministic but NOT constant (the divider walks the fixed
  //    phase offset), so only the adaptive-proportion window imbalance
  //    sees it. The slow-detection regime §4.4.2 exists for.
  static const InjectionScenario kScenarios[] = {
      {"freq-lock-0.98", [] {
         InjectionAttack atk;
         atk.coupling = 0.5;
         atk.modulation_depth = 0.0;
         atk.frequency_pull = 0.98;
         return atk;
       }(), 200},
      {"em-partial-lock-0.995", [] {
         InjectionAttack atk = em_harmonic_attack(0.8);
         atk.frequency_pull = 0.995;
         return atk;
       }(), 200},
      {"total-lock-1.0", [] {
         InjectionAttack atk;
         atk.coupling = 0.5;
         atk.modulation_depth = 0.0;
         atk.frequency_pull = 1.0;
         return atk;
       }(), 200},
  };
  return kScenarios;
}

std::span<const char* const> attack_names() {
  static constexpr const char* kNames[] = {"none", "em_weak", "em_strong",
                                           "lock"};
  return kNames;
}

std::optional<InjectionAttack> attack_by_name(std::string_view name) {
  if (name == "none") return std::nullopt;
  if (name == "em_weak") return em_harmonic_attack(0.3);
  if (name == "em_strong") {
    InjectionAttack atk = em_harmonic_attack(0.8);
    atk.frequency_pull = 0.9;
    return atk;
  }
  if (name == "lock") {
    InjectionAttack atk;
    atk.coupling = 0.9;
    atk.modulation_depth = 0.0;
    atk.frequency_pull = 0.98;
    return atk;
  }
  throw DataError("unknown attack name: " + std::string(name));
}

InjectionAttack em_harmonic_attack(double coupling) {
  InjectionAttack atk;
  atk.coupling = coupling;
  // Strong local EM fields frequency-pull the rings by ~0.1-1% (Bayon et
  // al. report visible locking); 0.3% keeps the beat clearly observable.
  atk.modulation_depth = 3e-3;
  return atk;
}

}  // namespace ptrng::attacks
