#include "trng/bit_stream.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "trng/continuous_health.hpp"

namespace ptrng::trng {

void pack_bits_msb_first(std::span<const std::uint8_t> bits,
                         std::span<std::byte> out) {
  PTRNG_EXPECTS(bits.size() == 8 * out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    unsigned byte = 0;
    for (std::size_t j = 0; j < 8; ++j)
      byte = (byte << 1) | (bits[8 * i + j] & 1u);
    out[i] = static_cast<std::byte>(byte);
  }
}

void unpack_bits_msb_first(std::span<const std::byte> bytes,
                           std::span<std::uint8_t> bits) {
  PTRNG_EXPECTS(bits.size() == 8 * bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const unsigned byte = std::to_integer<unsigned>(bytes[i]);
    for (std::size_t j = 0; j < 8; ++j)
      bits[8 * i + j] = static_cast<std::uint8_t>((byte >> (7 - j)) & 1u);
  }
}

void BitSource::fill_bytes(std::span<std::byte> out) {
  // Default: stage bits through generate_into in bounded chunks, then
  // pack. Pipeline overrides this with a zero-staging version.
  constexpr std::size_t kChunkBytes = 4096;
  std::vector<std::uint8_t> bits(8 * std::min(kChunkBytes, out.size()));
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t take = std::min(kChunkBytes, out.size() - done);
    const std::span<std::uint8_t> stage(bits.data(), 8 * take);
    generate_into(stage);
    pack_bits_msb_first(stage, out.subspan(done, take));
    done += take;
  }
}

std::vector<std::byte> BitSource::generate_bytes(std::size_t n_bytes) {
  PTRNG_EXPECTS(n_bytes >= 1);
  std::vector<std::byte> bytes(n_bytes);
  fill_bytes(bytes);
  return bytes;
}

std::vector<std::uint8_t> BitSource::generate_bits(std::size_t n_bits) {
  PTRNG_EXPECTS(n_bits >= 1);
  std::vector<std::uint8_t> bits(n_bits);
  generate_into(bits);
  return bits;
}

XorDecimateTransform::XorDecimateTransform(std::size_t factor)
    : factor_(factor) {
  PTRNG_EXPECTS(factor >= 1);
}

void XorDecimateTransform::push(std::span<const std::uint8_t> in,
                                std::vector<std::uint8_t>& out) {
  for (const std::uint8_t b : in) {
    acc_ ^= (b & 1u);
    if (++filled_ == factor_) {
      out.push_back(acc_);
      acc_ = 0;
      filled_ = 0;
    }
  }
}

void VonNeumannTransform::push(std::span<const std::uint8_t> in,
                               std::vector<std::uint8_t>& out) {
  for (const std::uint8_t raw : in) {
    const std::uint8_t b = raw & 1u;
    if (!has_pending_) {
      pending_ = b;
      has_pending_ = true;
      continue;
    }
    if (pending_ != b) out.push_back(pending_);
    has_pending_ = false;
  }
}

Pipeline::Pipeline(BitSource& source, std::size_t block_bits)
    : source_(source), block_bits_(block_bits) {
  PTRNG_EXPECTS(block_bits >= 1);
  raw_block_.resize(block_bits);
}

Pipeline& Pipeline::add_transform(std::unique_ptr<BitTransform> transform) {
  PTRNG_EXPECTS(transform != nullptr);
  transforms_.push_back(std::move(transform));
  return *this;
}

Pipeline& Pipeline::attach_tap(TapStage& tap) {
  if (std::find(taps_.begin(), taps_.end(), &tap) == taps_.end())
    taps_.push_back(&tap);
  if (auto* engine = dynamic_cast<HealthEngine*>(&tap)) health_ = engine;
  return *this;
}

Pipeline& Pipeline::detach_tap(TapStage& tap) {
  taps_.erase(std::remove(taps_.begin(), taps_.end(), &tap), taps_.end());
  if (health_ == dynamic_cast<HealthEngine*>(&tap)) health_ = nullptr;
  return *this;
}

void Pipeline::pump() {
  source_.generate_into(raw_block_);
  raw_bits_ += raw_block_.size();

  for (TapStage* tap : taps_) tap->observe(raw_block_);

  std::span<const std::uint8_t> current(raw_block_);
  for (std::size_t i = 0; i < transforms_.size(); ++i) {
    auto& next = scratch_[i & 1];
    next.clear();
    transforms_[i]->push(current, next);
    current = next;
  }

  // Compact delivered bits away before appending the new block.
  if (ready_pos_ > 0) {
    ready_.erase(ready_.begin(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_));
    ready_pos_ = 0;
  }
  ready_.insert(ready_.end(), current.begin(), current.end());
}

Pipeline& Pipeline::discard_buffered() {
  ready_.clear();
  ready_pos_ = 0;
  for (auto& transform : transforms_) transform->reset();
  return *this;
}

std::uint8_t Pipeline::next_bit() {
  while (ready_pos_ >= ready_.size()) pump();
  return ready_[ready_pos_++];
}

void Pipeline::generate_into(std::span<std::uint8_t> out) {
  std::size_t filled = 0;
  while (filled < out.size()) {
    if (ready_pos_ >= ready_.size()) {
      pump();
      continue;
    }
    const std::size_t take =
        std::min(out.size() - filled, ready_.size() - ready_pos_);
    std::copy(ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
              ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_ + take),
              out.begin() + static_cast<std::ptrdiff_t>(filled));
    ready_pos_ += take;
    filled += take;
  }
}

void Pipeline::fill_bytes(std::span<std::byte> out) {
  // Pack straight out of the ready buffer, whole bytes at a time (no
  // staging copy of the bit stream).
  std::size_t filled = 0;
  while (filled < out.size()) {
    while (ready_.size() - ready_pos_ < 8) pump();
    const std::size_t take =
        std::min(out.size() - filled, (ready_.size() - ready_pos_) / 8);
    pack_bits_msb_first(
        std::span<const std::uint8_t>(ready_.data() + ready_pos_, 8 * take),
        out.subspan(filled, take));
    ready_pos_ += 8 * take;
    filled += take;
  }
}

}  // namespace ptrng::trng
