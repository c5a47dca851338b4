#include "trng/continuous_health.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/contracts.hpp"

namespace ptrng::trng {

namespace {

/// Bin(n, p) pmf terms from the top, j = n, n - 1, ...: log pmf(n) =
/// n log p, then log pmf(j - 1) = log pmf(j) + log(j / (n - j + 1)) +
/// log((1 - p) / p), so a term costs one log and one exp (p strictly
/// inside (0, 1)).
class PmfFromTop {
 public:
  PmfFromTop(std::size_t n, double p)
      : n_(static_cast<double>(n)),
        j_(n_),
        log_pmf_(n_ * std::log(p)),
        log_odds_(std::log1p(-p) - std::log(p)) {}

  /// P(Bin(n, p) = j) at the current j, then steps j down by one.
  double next() {
    const double pmf = std::exp(log_pmf_);
    log_pmf_ += std::log(j_ / (n_ - j_ + 1.0)) + log_odds_;
    j_ -= 1.0;
    return pmf;
  }

 private:
  double n_, j_, log_pmf_, log_odds_;
};

/// Upper tail P(Bin(n, p) >= k), summed from the top so the alpha-scale
/// comparison keeps full relative precision (no 1 - tiny cancellation).
double binomial_tail_ge(std::size_t n, std::size_t k, double p) {
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  PmfFromTop pmf(n, p);
  double tail = 0.0;
  for (std::size_t j = n + 1; j-- > k;) tail += pmf.next();
  return std::min(tail, 1.0);
}

}  // namespace

std::uint32_t repetition_count_cutoff(double h_min, double false_alarm) {
  PTRNG_EXPECTS(h_min > 0.0 && h_min <= 1.0);
  PTRNG_EXPECTS(false_alarm > 0.0 && false_alarm < 1.0);
  const double c = 1.0 + std::ceil(-std::log2(false_alarm) / h_min);
  return static_cast<std::uint32_t>(c);
}

std::uint32_t adaptive_proportion_cutoff(std::size_t window, double h_min,
                                         double false_alarm) {
  PTRNG_EXPECTS(window >= 2);
  PTRNG_EXPECTS(h_min > 0.0 && h_min <= 1.0);
  PTRNG_EXPECTS(false_alarm > 0.0 && false_alarm < 1.0);
  const double p = std::exp2(-h_min);  // most-likely-value probability
  // critbinom(W, p, 1 - alpha) = the j where the upper tail first
  // exceeds alpha while summing pmf terms from k = W downward:
  // tail(j) > alpha and tail(j+1) <= alpha means CDF(j) >= 1 - alpha
  // and CDF(j-1) < 1 - alpha.
  PmfFromTop pmf(window, p);
  double tail = 0.0;
  for (std::size_t j = window + 1; j-- > 0;) {
    tail += pmf.next();
    if (tail > false_alarm)
      return static_cast<std::uint32_t>(1 + j);
  }
  return 1;  // alpha >= 1 - (1-p)^W: even zero occurrences "fail"
}

double adaptive_proportion_alarm_probability(std::size_t window,
                                             std::uint32_t cutoff,
                                             double ones_probability) {
  PTRNG_EXPECTS(window >= 2);
  PTRNG_EXPECTS(cutoff >= 1);
  PTRNG_EXPECTS(ones_probability >= 0.0 && ones_probability <= 1.0);
  const double p = ones_probability;
  // The window's first bit (probability p it is a 1) both picks the
  // counted value and contributes the first of the `cutoff` matches.
  return p * binomial_tail_ge(window - 1, cutoff - 1, p) +
         (1.0 - p) * binomial_tail_ge(window - 1, cutoff - 1, 1.0 - p);
}

double repetition_count_alarm_rate(std::uint32_t cutoff,
                                   double ones_probability) {
  PTRNG_EXPECTS(cutoff >= 2);
  PTRNG_EXPECTS(ones_probability >= 0.0 && ones_probability <= 1.0);
  const double p = ones_probability;
  const double c = static_cast<double>(cutoff);
  return (1.0 - p) * std::pow(p, c) + p * std::pow(1.0 - p, c);
}

RepetitionCountTest::RepetitionCountTest(std::uint32_t cutoff_value)
    : cutoff(cutoff_value) {
  PTRNG_EXPECTS(cutoff_value >= 2);
}

AdaptiveProportionTest::AdaptiveProportionTest(std::uint32_t window_bits,
                                               std::uint32_t cutoff_value)
    : window(window_bits), cutoff(cutoff_value) {
  PTRNG_EXPECTS(window_bits >= 2);
  PTRNG_EXPECTS(cutoff_value >= 2);
  PTRNG_EXPECTS(cutoff_value <= window_bits);
}

HealthEngine::HealthEngine(const ContinuousHealthConfig& config)
    : config_(config),
      rct_(repetition_count_cutoff(config.h_min, config.false_alarm)),
      apt_(static_cast<std::uint32_t>(config.apt_window),
           adaptive_proportion_cutoff(config.apt_window, config.h_min,
                                      config.false_alarm)) {
  PTRNG_EXPECTS(config.total_failure_alarms >= 1);
  PTRNG_EXPECTS(config.recovery_bits >= 1);
}

void HealthEngine::handle_alarm(HealthAlarmEvent::Test test,
                                std::size_t bit_index) {
  if (test == HealthAlarmEvent::Test::kRepetitionCount)
    ++rct_alarms_;
  else
    ++apt_alarms_;
  if (first_alarm_bit_ == kNoAlarm) first_alarm_bit_ = bit_index;
  healthy_run_bits_ = 0;
  ++pending_alarms_;
  if (state_ != HealthState::kTotalFailure) {
    state_ = (pending_alarms_ >= config_.total_failure_alarms)
                 ? HealthState::kTotalFailure
                 : HealthState::kIntermittentAlarm;
  }
  if (callback_) callback_({test, bit_index, state_});
}

void HealthEngine::process_bit(std::uint8_t bit) {
  const bool rct_alarm = rct_.step(bit);
  const bool apt_alarm = apt_.step(bit);
  const std::size_t index = bits_seen_++;
  if (rct_alarm)
    handle_alarm(HealthAlarmEvent::Test::kRepetitionCount, index);
  if (apt_alarm)
    handle_alarm(HealthAlarmEvent::Test::kAdaptiveProportion, index);
  if (!rct_alarm && !apt_alarm) {
    ++healthy_run_bits_;
    if (state_ == HealthState::kIntermittentAlarm &&
        healthy_run_bits_ >= config_.recovery_bits) {
      state_ = HealthState::kNominal;
      pending_alarms_ = 0;
    }
  }
}

void HealthEngine::process(std::span<const std::uint8_t> bits) {
  // Bytes hold one bit each (0/1), so a 64-bit word carries 8 bits and
  // popcount(word) is the number of ones. The word path runs only when
  // the word provably cannot alarm and cannot START an APT window (a
  // window close is handled in-word; the opening bit needs the scalar
  // primer), so any word that could produce an observable event falls
  // back to the scalar step and alarms land on the exact bit.
  constexpr std::uint64_t kOnePerByte = 0x0101010101010101ULL;
  const std::uint8_t* data = bits.data();
  std::size_t i = 0;
  const std::size_t n = bits.size();
  while (i < n) {
    if (!(i + 8 <= n && rct_.primed && rct_.run + 8 < rct_.cutoff &&
          apt_.seen != 0 && apt_.seen + 8 <= apt_.window &&
          (apt_.latched || apt_.matches + 8 < apt_.cutoff))) {
      process_bit(data[i]);
      ++i;
      continue;
    }
    // Hoist both tests' state into locals for the inner loop: the
    // byte-wide bit loads may alias any member, so without this the
    // compiler reloads/stores every field once per word. Inside the
    // loop no alarm, window start, or RCT latch flip can occur (the
    // loop conditions are exactly the fast-path preconditions), so the
    // locals are the whole story and apt latching stays constant.
    std::uint32_t run = rct_.run;
    std::uint8_t last = rct_.last;
    std::uint32_t seen = apt_.seen;
    std::uint32_t matches = apt_.matches;
    const std::uint32_t rct_cutoff = rct_.cutoff;
    const std::uint32_t apt_cutoff = apt_.cutoff;
    const std::uint32_t window = apt_.window;
    const bool count_ones = apt_.counted != 0;
    const bool apt_latched = apt_.latched;
    const std::size_t start = i;
    while (i + 8 <= n && run + 8 < rct_cutoff && seen != 0 &&
           seen + 8 <= window && (apt_latched || matches + 8 < apt_cutoff)) {
      std::uint64_t word;
      std::memcpy(&word, data + i, sizeof word);
      const std::uint64_t masked = word & kOnePerByte;
      const auto ones = static_cast<std::uint32_t>(std::popcount(masked));
      seen += 8;
      matches += count_ones ? ones : 8 - ones;
      if (seen == window) seen = 0;  // window closes here, loop exits
      if (masked == 0 || masked == kOnePerByte) {
        const std::uint8_t value = masked ? 1 : 0;
        if (value == last) {
          run += 8;
        } else {
          last = value;
          run = 8;
        }
      } else {
        // Mixed word: the run entering the next word is the trailing
        // run of equal bits. The last-in-stream bit lives in the most
        // significant byte (little-endian load), so XOR against a
        // same-value fill turns the trailing run into leading zero
        // BYTES — no backward scan.
        const auto value = static_cast<std::uint8_t>((word >> 56) & 1u);
        const std::uint64_t diff = masked ^ (value ? kOnePerByte : 0);
        last = value;
        run = static_cast<std::uint32_t>(std::countl_zero(diff)) / 8;
      }
      i += 8;
    }
    rct_.run = run;
    rct_.last = last;
    // rct latched would imply run >= cutoff, which the preconditions
    // exclude on entry and the loop bound preserves.
    rct_.latched = false;
    apt_.seen = seen;
    apt_.matches = matches;
    bits_seen_ += i - start;
    healthy_run_bits_ += i - start;
    // Recovery crossing is checked at batch granularity: no alarm can
    // fire inside the loop, so dropping to nominal here is
    // observationally identical to the per-bit check.
    if (state_ == HealthState::kIntermittentAlarm &&
        healthy_run_bits_ >= config_.recovery_bits) {
      state_ = HealthState::kNominal;
      pending_alarms_ = 0;
    }
  }
}

void HealthEngine::acknowledge_failure() noexcept {
  state_ = HealthState::kNominal;
  pending_alarms_ = 0;
  healthy_run_bits_ = 0;
  rct_ = RepetitionCountTest(rct_.cutoff);
  apt_ = AdaptiveProportionTest(apt_.window, apt_.cutoff);
}

DetectionLatency measure_detection_latency(BitSource& source,
                                           HealthEngine& engine,
                                           std::size_t max_bits,
                                           std::size_t block_bits) {
  PTRNG_EXPECTS(max_bits >= 1);
  PTRNG_EXPECTS(block_bits >= 1);
  const std::size_t start_bits = engine.bits_seen();
  std::vector<std::uint8_t> block(block_bits);
  std::size_t consumed = 0;
  while (consumed < max_bits && !engine.alarmed()) {
    const std::size_t take = std::min(block_bits, max_bits - consumed);
    const std::span<std::uint8_t> chunk(block.data(), take);
    source.generate_into(chunk);
    engine.process(chunk);
    consumed += take;
  }
  if (!engine.alarmed()) return {false, 0};
  return {true, engine.first_alarm_bit() - start_bits + 1};
}

}  // namespace ptrng::trng
