// Span tracer of the benchmark: spans are opened around calls into the
// library's public functions from the benchmark's own code (never inside
// the library), kept in memory, written out when the run ends, and
// reduced to per-layer self times and counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoSpan =
    std::numeric_limits<std::uint32_t>::max();

/// One timed call into a layer.
struct SpanRecord {
  std::uint32_t name = 0;         ///< index into Tracer::names()
  std::uint32_t parent = kNoSpan;  ///< enclosing span, or kNoSpan
  std::uint64_t op = 0;           ///< benchmark op the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t units = 0;  ///< work done inside: bits, bytes or calls
};

/// Single-threaded span recorder. Spans nest by call order: a span opened
/// while another is open becomes its child.
class Tracer {
 public:
  /// Interns a span name; call once per name outside timed loops.
  [[nodiscard]] std::uint32_t name_id(std::string_view name);

  /// Pre-sizes the span store so timed loops never reallocate it.
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Sets the op id stamped on spans opened from now on.
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  [[nodiscard]] std::uint32_t open(std::uint32_t name, std::uint64_t units);
  void close(std::uint32_t span) noexcept;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Writes every span as CSV (name,start_ns,end_ns,parent,op,units);
  /// returns false when the file cannot be written.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<SpanRecord> spans_;
  std::uint32_t innermost_ = kNoSpan;
  std::uint64_t op_ = 0;
};

/// RAII span: open on construction, close on destruction.
class Span {
 public:
  Span(Tracer& tracer, std::uint32_t name, std::uint64_t units = 0)
      : tracer_(tracer), id_(tracer.open(name, units)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Self time of every span [ns]: its duration minus the part of its
/// interval that its direct children cover (children are clipped to the
/// parent and overlaps among them are counted once).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<SpanRecord>& spans);

/// Everything recorded under one span name.
struct LayerStats {
  std::uint64_t spans = 0;
  std::uint64_t units = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> durations_ns;  ///< per span, in record order
  std::vector<double> self_ns_each;  ///< per span, in record order

  /// Span time per unit of work [ns].
  [[nodiscard]] double ns_per_unit() const noexcept {
    return units ? static_cast<double>(total_ns) / static_cast<double>(units)
                 : 0.0;
  }
};

/// Groups the tracer's spans by name.
[[nodiscard]] std::map<std::string, LayerStats> layer_stats(
    const Tracer& tracer);

}  // namespace perfbench
