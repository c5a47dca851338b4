// The bit-generation stack: every stage of the paper's Fig. 4 chain —
// raw-bit source (eRO-TRNG, multi-ring), algebraic post-processing
// (AIS31 Fig. 1 third stage) and the embedded online test — expressed as
// one composable, batch-first streaming pipeline:
//
//   BitSource --> [taps] --> BitTransform --> ... --> output bits/BYTES
//
// Sources are batch-first (`generate_into`, mirroring
// noise::NoiseSource::fill) so hot paths can block and parallelize;
// transforms are streaming and stateful (carry state persists across
// block boundaries), so a pipeline fed in arbitrary block sizes produces
// exactly the same bits as one fed the whole stream at once. The legacy
// free functions in trng/postprocess.hpp are thin wrappers over these
// transforms.
//
// Since PR 7 the PUBLIC output surface is byte-first: consumers call
// fill_bytes()/generate_bytes() (the RBG service, the conditioner and
// every downstream user deal in bytes); the bit-level calls remain the
// raw domain for transforms and entropy estimation. Raw-stream
// observers (online monitor, continuous-health engine, raw-sample
// recorder, conditioner entropy accounting) attach through ONE
// mechanism, Pipeline::attach_tap(TapStage&). docs/ARCHITECTURE.md §6
// states the layer rules, §7 the byte-first conventions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace ptrng::trng {

class HealthEngine;  // continuous_health.hpp

/// Byte-packing convention of the byte-first surface: bit i of the
/// stream lands in bit (7 - i%8) of byte i/8 — MSB-first, the hardware
/// shift-register order. Pinned by test_bit_stream.cpp. Throws
/// ContractViolation when bits.size() != 8 * out.size().
void pack_bits_msb_first(std::span<const std::uint8_t> bits,
                         std::span<std::byte> out);

/// Inverse of pack_bits_msb_first (bits.size() == 8 * bytes.size(),
/// enforced the same way).
void unpack_bits_msb_first(std::span<const std::byte> bytes,
                           std::span<std::uint8_t> bits);

/// A producer of raw random bits (values 0/1), the first pipeline stage.
/// Implementations must keep `next_bit()` and `generate_into()` on the
/// SAME underlying stream: interleaving the two pulls consecutive bits
/// of one sequence, and `generate_into` over n bits is bit-identical to
/// n `next_bit()` calls (test_bit_stream.cpp pins this for every
/// generator, at 1 and 8 threads). `fill_bytes` packs that same stream
/// MSB-first, so the byte surface is a pure re-grouping of the bit
/// surface — never a different stream.
class BitSource {
 public:
  virtual ~BitSource() = default;

  /// Produces the next raw bit of the stream.
  virtual std::uint8_t next_bit() = 0;

  /// Batch-first fast path: fills `out` with the next out.size() bits.
  /// Overridable for sources with a real batched implementation (the
  /// multi-ring TRNG parallelizes across rings here); the default loops
  /// next_bit().
  virtual void generate_into(std::span<std::uint8_t> out) {
    for (auto& b : out) b = next_bit();
  }

  /// Byte-first primary surface: fills `out` with the next
  /// 8 * out.size() bits of the stream, packed MSB-first. The default
  /// pulls through generate_into; Pipeline overrides it to pack from
  /// its ready buffer without an extra staging pass.
  virtual void fill_bytes(std::span<std::byte> out);

  /// Allocating convenience of fill_bytes.
  [[nodiscard]] std::vector<std::byte> generate_bytes(std::size_t n_bytes);

  /// Bulk BIT generation (allocating form of generate_into) — the raw
  /// domain for entropy estimators and transform equivalence checks.
  [[nodiscard]] std::vector<std::uint8_t> generate_bits(std::size_t n_bits);
};

/// A streaming, stateful re-expression of a post-processing block: each
/// push consumes an input block of any size (including empty) and APPENDS
/// the produced bits to `out`. Partial state (an open XOR group, an
/// unpaired von Neumann bit) carries across pushes, so block boundaries
/// never change the output stream.
class BitTransform {
 public:
  virtual ~BitTransform() = default;

  /// Consumes `in`, appending output bits to `out`.
  virtual void push(std::span<const std::uint8_t> in,
                    std::vector<std::uint8_t>& out) = 0;

  /// Drops any carried partial state (open group / unpaired bit).
  virtual void reset() = 0;

  /// Human-readable stage name for reports.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// A passive observer of the pipeline's RAW bit stream (before any
/// transform): the thermal-noise online test, the continuous-health
/// engine, the raw-sample recorder and the conditioner's entropy-
/// accounting probe all attach through this one interface
/// (Pipeline::attach_tap). observe() must not modify the bits and is
/// called once per pumped block, in attachment order.
class TapStage {
 public:
  virtual ~TapStage() = default;

  /// Called with each raw block, in stream order.
  virtual void observe(std::span<const std::uint8_t> raw_bits) = 0;

  /// Human-readable tap name for reports.
  [[nodiscard]] virtual const char* tap_name() const noexcept = 0;
};

/// TapStage that records the raw stream into a buffer (bounded by
/// `max_bits`) — the raw-sample export hook for offline SP 800-90B
/// estimation, and a debugging aid in tests.
class RawRecorderTap final : public TapStage {
 public:
  explicit RawRecorderTap(
      std::size_t max_bits = std::numeric_limits<std::size_t>::max())
      : max_bits_(max_bits) {}

  void observe(std::span<const std::uint8_t> raw_bits) override {
    const std::size_t room = max_bits_ - bits_.size();
    const std::size_t take = std::min(room, raw_bits.size());
    bits_.insert(bits_.end(), raw_bits.begin(),
                 raw_bits.begin() + static_cast<std::ptrdiff_t>(take));
    seen_ += raw_bits.size();
  }
  [[nodiscard]] const char* tap_name() const noexcept override {
    return "raw_recorder";
  }

  /// Recorded bits (the first max_bits of the stream since clear()).
  [[nodiscard]] const std::vector<std::uint8_t>& bits() const noexcept {
    return bits_;
  }
  /// Total raw bits observed (recorded or not).
  [[nodiscard]] std::size_t bits_seen() const noexcept { return seen_; }

  void clear() noexcept {
    bits_.clear();
    seen_ = 0;
  }

 private:
  std::size_t max_bits_;
  std::vector<std::uint8_t> bits_;
  std::size_t seen_ = 0;
};

/// Streaming XOR decimation (piling-up corrector): emits the XOR of each
/// non-overlapping `factor`-bit group; a trailing partial group stays
/// buffered until completed by a later push.
class XorDecimateTransform : public BitTransform {
 public:
  explicit XorDecimateTransform(std::size_t factor);

  void push(std::span<const std::uint8_t> in,
            std::vector<std::uint8_t>& out) override;
  void reset() override { acc_ = 0, filled_ = 0; }
  [[nodiscard]] const char* name() const noexcept override {
    return "xor_decimate";
  }

  [[nodiscard]] std::size_t factor() const noexcept { return factor_; }

 private:
  std::size_t factor_;
  std::uint8_t acc_ = 0;      ///< XOR of the open group so far
  std::size_t filled_ = 0;    ///< bits consumed into the open group
};

/// Streaming von Neumann corrector: 01 -> 0, 10 -> 1, 00/11 dropped. An
/// unpaired bit is held until its partner arrives, so pairs spanning
/// block boundaries behave exactly like the batch version.
class VonNeumannTransform final : public BitTransform {
 public:
  void push(std::span<const std::uint8_t> in,
            std::vector<std::uint8_t>& out) override;
  void reset() override { has_pending_ = false; }
  [[nodiscard]] const char* name() const noexcept override {
    return "von_neumann";
  }

 private:
  bool has_pending_ = false;
  std::uint8_t pending_ = 0;
};

/// Parity of non-overlapping `block`-sized groups — the hardware-style
/// alias of XOR decimation, kept as its own stage name.
class ParityFilterTransform final : public XorDecimateTransform {
 public:
  explicit ParityFilterTransform(std::size_t block)
      : XorDecimateTransform(block) {}
  [[nodiscard]] const char* name() const noexcept override {
    return "parity_filter";
  }
};

/// Composes one BitSource with N BitTransforms and any number of
/// TapStages into a BitSource again (pipelines nest).
///
/// Raw bits are pulled from the source in `block_bits` batches (the
/// batched fast path), observed by the attached taps (in attachment
/// order), then run through the transforms in insertion order. Taps
/// watch the RAW stream the way the paper's embedded test watches the
/// counter: a variance collapse or bias lock on the source trips them
/// regardless of what post-processing hides downstream. To tap
/// mid-chain, nest pipelines: an outer pipeline's taps observe the
/// inner pipeline's output as their raw stream.
///
/// The pipeline does not own the source or taps (they usually outlive
/// it in the enclosing scenario); it owns its transforms.
///
/// A transform chain that stops emitting (e.g. a von Neumann corrector
/// fed by a locked, constant source) makes next_bit()/generate_into()
/// pull raw blocks indefinitely — exactly the failure mode the health
/// taps exist to flag, so install one when the source is untrusted.
class Pipeline final : public BitSource {
 public:
  explicit Pipeline(BitSource& source, std::size_t block_bits = 4096);

  /// Appends a post-processing stage; returns *this for chaining.
  Pipeline& add_transform(std::unique_ptr<BitTransform> transform);

  /// Attaches a raw-stream observer; observe() runs once per pumped
  /// block, in attachment order, BEFORE the transforms. Attaching the
  /// same tap twice is a no-op.
  Pipeline& attach_tap(TapStage& tap);

  /// Detaches a previously attached tap (no-op if absent).
  Pipeline& detach_tap(TapStage& tap);

  [[nodiscard]] std::size_t tap_count() const noexcept {
    return taps_.size();
  }

  /// The most recently attached continuous-health engine, or nullptr.
  [[nodiscard]] HealthEngine* health_engine() const noexcept {
    return health_;
  }

  std::uint8_t next_bit() override;
  void generate_into(std::span<std::uint8_t> out) override;
  void fill_bytes(std::span<std::byte> out) override;

  /// Drops pumped-but-undelivered bits and resets transform carry
  /// state. Post-failure recovery uses this: bits buffered before a
  /// health alarm are suspect and must never back fresh output, and the
  /// next pull is guaranteed to pump raw bits the taps get to observe.
  Pipeline& discard_buffered();

  /// Raw bits pulled from the source so far.
  [[nodiscard]] std::size_t raw_bits() const noexcept { return raw_bits_; }
  [[nodiscard]] std::size_t transform_count() const noexcept {
    return transforms_.size();
  }

 private:
  void pump();  ///< pulls one raw block through taps + transforms

  BitSource& source_;
  std::size_t block_bits_;
  std::vector<std::unique_ptr<BitTransform>> transforms_;
  std::vector<TapStage*> taps_;
  HealthEngine* health_ = nullptr;  ///< accessor convenience only

  std::vector<std::uint8_t> raw_block_;
  std::vector<std::uint8_t> scratch_[2];
  std::vector<std::uint8_t> ready_;  ///< transformed bits awaiting delivery
  std::size_t ready_pos_ = 0;
  std::size_t raw_bits_ = 0;
};

}  // namespace ptrng::trng
