// What one benchmark run reports: op accounting, correctness checks,
// metrics, exact counts and the host record, rendered as JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Accumulates one run's outcome. The run is correct only when every
/// check passed; a failed op both counts as failed and fails a check.
class Result {
 public:
  /// Counts one op; a failed op also fails the check named `what`.
  void record_op(bool ok, const std::string& what);

  /// Records a correctness check.
  void check(const std::string& name, bool ok, const std::string& detail = {});

  void metric(const std::string& name, double value, const std::string& unit);
  /// An exact count (raw bits, bytes, fills, shards...) for the detail
  /// record; counts are not timings and repeat for a given seed.
  void count(const std::string& name, double value);
  /// A latency summary for the detail record: median, the tail rule's
  /// percentile and the sample count.
  void latency(const std::string& name, const std::vector<double>& ms);
  /// A free-form detail (host fields, bases of ratios).
  void note(const std::string& name, const std::string& value);
  /// A numeric series for the detail record (ops completed per second).
  void series(const std::string& name, const std::vector<double>& values);

  [[nodiscard]] bool correct() const noexcept;
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Check>& checks() const noexcept {
    return checks_;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

  /// The contract line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string summary_json() const;
  /// Everything else: checks, counts, latency tails, notes.
  [[nodiscard]] std::string detail_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Check> checks_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> counts_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, Tail>> tails_;
  std::vector<std::pair<std::string, double>> medians_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

/// Shortest round-trip decimal form of a double (JSON number).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& value);

}  // namespace perfbench
