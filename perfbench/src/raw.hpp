// The `raw` workload: the paper eRO (two 103 MHz rings with flicker,
// divider 200) feeding a 4096-bit Pipeline with a HealthEngine tap, and a
// HashConditioner (h_min 0.5) drawing 248 bytes per op. 248 bytes need
// exactly 4096 raw bits, so every op is exactly one pipeline pump.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "trng/conditioning.hpp"
#include "trng/continuous_health.hpp"
#include "trng/ero_trng.hpp"

namespace perfbench {

namespace trng = ::ptrng::trng;

inline constexpr std::uint32_t kRawDivider = 200;
inline constexpr std::size_t kRawBlockBits = 4096;
inline constexpr std::size_t kRawOpBytes = 248;

/// The composed chain, as a user builds it.
class RawChain {
 public:
  explicit RawChain(std::uint64_t seed);
  RawChain(const RawChain&) = delete;
  RawChain& operator=(const RawChain&) = delete;

  /// One op: condition(pipeline, 248 bytes). False when the health
  /// engine left nominal.
  bool op(std::span<std::byte> out);

  [[nodiscard]] std::uint64_t bits_in() const noexcept {
    return conditioner_.bits_in();
  }
  [[nodiscard]] std::size_t raw_bits() const noexcept {
    return pipeline_.raw_bits();
  }

 private:
  trng::EroTrng source_;
  trng::HealthEngine health_;
  trng::Pipeline pipeline_;
  trng::HashConditioner conditioner_;
};

/// BitSource adapter that records one span around each pull.
class TracedSource final : public trng::BitSource {
 public:
  TracedSource(trng::BitSource& inner, Tracer& tracer, std::string_view name)
      : inner_(inner), tracer_(tracer), name_(tracer.name_id(name)) {}

  std::uint8_t next_bit() override {
    Span span(tracer_, name_, 1);
    return inner_.next_bit();
  }
  void generate_into(std::span<std::uint8_t> out) override {
    Span span(tracer_, name_, out.size());
    inner_.generate_into(out);
  }

 private:
  trng::BitSource& inner_;
  Tracer& tracer_;
  std::uint32_t name_;
};

/// TapStage adapter that records one span around each health scan.
class TracedHealthTap final : public trng::TapStage {
 public:
  TracedHealthTap(trng::HealthEngine& engine, Tracer& tracer)
      : engine_(engine),
        tracer_(tracer),
        name_(tracer.name_id("trng.health.process")) {}

  void observe(std::span<const std::uint8_t> raw_bits) override {
    Span span(tracer_, name_, raw_bits.size());
    engine_.process(raw_bits);
  }
  [[nodiscard]] const char* tap_name() const noexcept override {
    return "traced_health";
  }

 private:
  trng::HealthEngine& engine_;
  Tracer& tracer_;
  std::uint32_t name_;
};

/// The same chain decomposed for tracing: spans around the eRO pull
/// (trng.ero.generate_into), the health tap (trng.health.process), the
/// pipeline (trng.pipeline.generate_into) and the conditioner
/// (trng.conditioning.condition), all under one raw.op span.
class TracedRawChain {
 public:
  TracedRawChain(std::uint64_t seed, Tracer& tracer);
  TracedRawChain(const TracedRawChain&) = delete;
  TracedRawChain& operator=(const TracedRawChain&) = delete;

  bool op(std::span<std::byte> out);

 private:
  trng::EroTrng source_;
  trng::HealthEngine health_;
  Tracer& tracer_;
  TracedSource traced_source_;
  TracedHealthTap traced_health_;
  trng::Pipeline pipeline_;
  TracedSource traced_pipeline_;
  trng::HashConditioner conditioner_;
  std::uint32_t op_name_;
  std::uint32_t condition_name_;
};

/// Runs `ops` ops on both twins and checks that every op's bytes agree.
void check_decomposed_matches_composed(Result& result, RawChain& composed,
                                       TracedRawChain& decomposed,
                                       std::size_t ops);

/// Checks bits_in == 4096 x ops exactly, on the conditioner's ledger and
/// on the pipeline's raw-bit count.
void check_raw_bits(Result& result, std::uint64_t conditioner_bits,
                    std::uint64_t pipeline_bits, std::uint64_t ops);

/// SHA-256 input bytes of one hash_df call that turns `in_bytes` into
/// `out_bytes`: one (counter || be32 length || input) message per 32-byte
/// output block.
[[nodiscard]] std::uint64_t hash_df_sha256_bytes(std::uint64_t in_bytes,
                                                 std::uint64_t out_bytes);

}  // namespace perfbench
