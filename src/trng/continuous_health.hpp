// Line-rate continuous health engine: the SP 800-90B §4.4 (X9.82 Part 2)
// continuous tests every deployed TRNG runs INLINE on the raw stream, as
// opposed to the offline AIS-31/procedure batteries in ais31.hpp. Two
// O(1)-per-bit streaming tests (struct-per-test, after iPXE's entropy
// stack):
//
//  * Repetition Count Test (§4.4.1): fails when one value repeats
//    `cutoff` times in a row; catches stuck-at and lock-up failures.
//    cutoff C = 1 + ceil(-log2(alpha) / H).
//  * Adaptive Proportion Test (§4.4.2): counts occurrences of the first
//    sample of each `window`-bit window; fails when the count reaches
//    `cutoff`. cutoff C = 1 + critbinom(W, 2^-H, 1 - alpha).
//
// Both cutoffs derive from a target min-entropy H (bits/bit) and a
// per-test false-alarm probability alpha — no hand-tuned thresholds.
// A HealthEngine owns one instance of each test, scans raw blocks
// word-at-a-time (no per-bit virtual calls; bit-exact against the
// scalar path, including alarm bit indices), and runs the alarm state
// machine nominal -> intermittent-alarm -> total-failure with an
// auto-reseed/callback hook for the RBG layer (ROADMAP item 1).
//
// docs/ARCHITECTURE.md §6 "Continuous health rules" states the tap
// placement and alarm semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>

#include "trng/bit_stream.hpp"

namespace ptrng::trng {

/// Repetition-count cutoff C = 1 + ceil(-log2(alpha)/h_min)
/// (SP 800-90B §4.4.1). Requires 0 < h_min <= 1 and 0 < alpha < 1.
[[nodiscard]] std::uint32_t repetition_count_cutoff(double h_min,
                                                    double false_alarm);

/// Adaptive-proportion cutoff C = 1 + critbinom(window, 2^-h_min,
/// 1 - alpha) (SP 800-90B §4.4.2), where critbinom(n, p, q) is the
/// smallest k with BinomCDF(k; n, p) >= q. Computed by upper-tail
/// summation so the q ~ 1 comparison never cancels.
[[nodiscard]] std::uint32_t adaptive_proportion_cutoff(std::size_t window,
                                                       double h_min,
                                                       double false_alarm);

/// Exact per-window alarm probability of the adaptive proportion test
/// for an IID source with P(bit = 1) = ones_probability: the first bit
/// of the window picks the counted value, so
///   q = p * P(Bin(W-1, p) >= C-1) + (1-p) * P(Bin(W-1, 1-p) >= C-1).
/// Tolerance tests derive their CI bands from this (stat_tolerance.hpp).
[[nodiscard]] double adaptive_proportion_alarm_probability(
    std::size_t window, std::uint32_t cutoff, double ones_probability);

/// Expected repetition-count alarms PER BIT for an IID source with
/// P(bit = 1) = ones_probability: one alarm per maximal run of length
/// >= C, and a run of 1s (0s) of length >= C starts at a given position
/// with probability (1-p) p^C (resp. p (1-p)^C).
[[nodiscard]] double repetition_count_alarm_rate(std::uint32_t cutoff,
                                                 double ones_probability);

/// Repetition count test state (SP 800-90B §4.4.1). One alarm per
/// offending run: the alarm fires on the bit where the run length
/// reaches `cutoff` and latches until the value changes.
struct RepetitionCountTest {
  std::uint32_t cutoff;     ///< C: run length that fails
  std::uint32_t run = 0;    ///< B: current run length
  std::uint8_t last = 0;    ///< A: the value being counted
  bool primed = false;      ///< first bit seen yet?
  bool latched = false;     ///< already alarmed on this run

  explicit RepetitionCountTest(std::uint32_t cutoff_value);

  /// Consumes one bit; true exactly when an alarm fires at this bit.
  bool step(std::uint8_t bit) noexcept {
    bit &= 1u;
    if (primed && bit == last) {
      ++run;
      if (!latched && run >= cutoff) {
        latched = true;
        return true;
      }
      return false;
    }
    last = bit;
    run = 1;
    primed = true;
    latched = false;
    return false;  // cutoff >= 2 by derivation, a fresh run cannot fail
  }
};

/// Adaptive proportion test state (SP 800-90B §4.4.2). The first bit of
/// each `window`-bit window picks the counted value A (and counts as
/// its first occurrence); the alarm fires on the bit where the count
/// reaches `cutoff` and latches for the rest of the window.
struct AdaptiveProportionTest {
  std::uint32_t window;     ///< W: window size in bits
  std::uint32_t cutoff;     ///< C: occurrence count that fails
  std::uint32_t seen = 0;   ///< S: bits consumed in the current window
  std::uint32_t matches = 0;  ///< B: occurrences of `counted` so far
  std::uint8_t counted = 0;   ///< A: the value being counted
  bool latched = false;       ///< already alarmed in this window

  AdaptiveProportionTest(std::uint32_t window_bits,
                         std::uint32_t cutoff_value);

  /// Consumes one bit; true exactly when an alarm fires at this bit.
  bool step(std::uint8_t bit) noexcept {
    bit &= 1u;
    if (seen == 0) {  // window start
      counted = bit;
      matches = 1;
      seen = 1;
      latched = false;
      return false;  // cutoff >= 2 by derivation
    }
    ++seen;
    bool alarm = false;
    if (bit == counted) {
      ++matches;
      if (!latched && matches >= cutoff) {
        latched = true;
        alarm = true;
      }
    }
    if (seen == window) seen = 0;
    return alarm;
  }
};

/// Alarm state machine position (AIS-31 noise-alarm flavoured).
enum class HealthState : std::uint8_t {
  kNominal,            ///< no unrecovered alarm
  kIntermittentAlarm,  ///< alarm(s) seen, awaiting recovery_bits healthy bits
  kTotalFailure,       ///< too many unrecovered alarms; latched until
                       ///< acknowledge_failure()
};

/// Engine configuration. Cutoffs derive from (h_min, false_alarm) at
/// construction; the state-machine knobs size the reseed story.
struct ContinuousHealthConfig {
  double h_min = 0.5;  ///< target min-entropy per raw bit (conservative)
  double false_alarm = 0x1p-20;  ///< alpha per test (90B default 2^-20)
  std::size_t apt_window = 1024;  ///< W (90B binary default)
  /// Unrecovered alarms that escalate intermittent -> total failure.
  std::size_t total_failure_alarms = 3;
  /// Healthy bits after an alarm before dropping back to nominal.
  std::size_t recovery_bits = 4096;
};

/// One alarm, as delivered to the callback hook.
struct HealthAlarmEvent {
  enum class Test : std::uint8_t { kRepetitionCount, kAdaptiveProportion };
  Test test;
  std::size_t bit_index;  ///< 0-based raw-bit index of the offending bit
  HealthState state;      ///< engine state AFTER handling this alarm
};

/// The continuous health engine: both §4.4 tests + the alarm state
/// machine, fed either per bit (`process_bit`, the reference path) or
/// per block (`process`, the zero-copy word-at-a-time fast path — the
/// two are bit-exact, including alarm indices and callback order).
///
/// A TapStage: attach directly to a Pipeline raw stream with
/// Pipeline::attach_tap(engine) (observe() forwards to process(), so
/// event sequences are identical to explicit process() calls).
class HealthEngine : public TapStage {
 public:
  /// Reseed/notification hook (e.g. the RBG layer's reseed trigger).
  /// Invoked synchronously from process()/process_bit() on every alarm.
  using AlarmCallback = std::function<void(const HealthAlarmEvent&)>;

  static constexpr std::size_t kNoAlarm =
      std::numeric_limits<std::size_t>::max();

  explicit HealthEngine(const ContinuousHealthConfig& config);

  /// Block fast path: scans 8 bits per 64-bit word wherever neither
  /// test can alarm, reset a window, or need priming; boundary words
  /// fall back to the scalar step, so alarms fire at the exact bit.
  void process(std::span<const std::uint8_t> bits);

  /// Scalar reference path: one bit through both tests + state machine.
  void process_bit(std::uint8_t bit);

  /// TapStage: raw-stream observation is exactly process().
  void observe(std::span<const std::uint8_t> raw_bits) override {
    process(raw_bits);
  }
  [[nodiscard]] const char* tap_name() const noexcept override {
    return "continuous_health";
  }

  [[nodiscard]] HealthState state() const noexcept { return state_; }
  [[nodiscard]] std::size_t bits_seen() const noexcept { return bits_seen_; }
  [[nodiscard]] std::size_t repetition_alarms() const noexcept {
    return rct_alarms_;
  }
  [[nodiscard]] std::size_t proportion_alarms() const noexcept {
    return apt_alarms_;
  }
  [[nodiscard]] std::size_t alarms() const noexcept {
    return rct_alarms_ + apt_alarms_;
  }
  /// 0-based bit index of the first alarm ever, or kNoAlarm.
  [[nodiscard]] std::size_t first_alarm_bit() const noexcept {
    return first_alarm_bit_;
  }
  [[nodiscard]] bool alarmed() const noexcept {
    return first_alarm_bit_ != kNoAlarm;
  }

  [[nodiscard]] const RepetitionCountTest& repetition_test() const noexcept {
    return rct_;
  }
  [[nodiscard]] const AdaptiveProportionTest& proportion_test()
      const noexcept {
    return apt_;
  }
  [[nodiscard]] const ContinuousHealthConfig& config() const noexcept {
    return config_;
  }

  void set_alarm_callback(AlarmCallback callback) {
    callback_ = std::move(callback);
  }

  /// External reset after total failure (or a completed reseed): drops
  /// the state machine to nominal and re-primes both tests. Cumulative
  /// counters and first_alarm_bit are diagnostics and survive.
  void acknowledge_failure() noexcept;

 private:
  void handle_alarm(HealthAlarmEvent::Test test, std::size_t bit_index);

  ContinuousHealthConfig config_;
  RepetitionCountTest rct_;
  AdaptiveProportionTest apt_;
  HealthState state_ = HealthState::kNominal;
  AlarmCallback callback_;
  std::size_t bits_seen_ = 0;
  std::size_t rct_alarms_ = 0;
  std::size_t apt_alarms_ = 0;
  std::size_t first_alarm_bit_ = kNoAlarm;
  std::size_t pending_alarms_ = 0;     ///< unrecovered alarms
  std::size_t healthy_run_bits_ = 0;   ///< bits since the last alarm
};

/// Detection-latency measurement: bits consumed until the engine's
/// first alarm — the results axis the paper never had (it measured
/// decisions/blocks). Deterministic in `block_bits` because alarms fire
/// at exact bit indices.
struct DetectionLatency {
  bool detected = false;
  std::size_t bits = 0;  ///< 1-based latency (bits consumed incl. the
                         ///< offending bit); 0 when not detected
};

/// Pulls blocks from `source` through `engine` until the first alarm or
/// `max_bits`, and reports the latency in bits.
[[nodiscard]] DetectionLatency measure_detection_latency(
    BitSource& source, HealthEngine& engine, std::size_t max_bits,
    std::size_t block_bits = 4096);

}  // namespace ptrng::trng
