#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

void Result::record_op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // One check per failure kind: the first failure fails it.
  for (const Check& c : checks_)
    if (c.name == what && !c.ok) return;
  check(what, false, "op " + std::to_string(attempted_ - 1) + " failed");
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::count(const std::string& name, double value) {
  counts_.emplace_back(name, value);
}

void Result::latency(const std::string& name, const std::vector<double>& ms) {
  if (ms.empty()) return;
  tails_.emplace_back(name, tail_percentile(ms));
  medians_.emplace_back(name, median(ms));
}

void Result::note(const std::string& name, const std::string& value) {
  notes_.emplace_back(name, value);
}

void Result::series(const std::string& name,
                    const std::vector<double>& values) {
  series_.emplace_back(name, values);
}

bool Result::correct() const noexcept {
  if (checks_.empty()) return false;
  for (const Check& c : checks_)
    if (!c.ok) return false;
  return true;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char ch : value) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", ch);
          out += esc;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string Result::summary_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::string Result::detail_json() const {
  std::ostringstream os;
  os << "{\"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    os << (i ? ", " : "") << "{\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << json_string(c.detail) << "}";
  }
  os << "], \"counts\": {";
  for (std::size_t i = 0; i < counts_.size(); ++i)
    os << (i ? ", " : "") << json_string(counts_[i].first) << ": "
       << json_number(counts_[i].second);
  os << "}, \"latency_ms\": {";
  for (std::size_t i = 0; i < tails_.size(); ++i) {
    const Tail& t = tails_[i].second;
    os << (i ? ", " : "") << json_string(tails_[i].first)
       << ": {\"samples\": " << t.samples
       << ", \"p50\": " << json_number(medians_[i].second)
       << ", \"tail_percentile\": " << json_number(t.percentile)
       << ", \"tail\": " << json_number(t.value)
       << ", \"tail_samples_beyond\": " << t.beyond << "}";
  }
  os << "}, \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    os << (i ? ", " : "") << json_string(notes_[i].first) << ": "
       << json_string(notes_[i].second);
  os << "}, \"series\": {";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    os << (i ? ", " : "") << json_string(series_[i].first) << ": [";
    for (std::size_t j = 0; j < series_[i].second.size(); ++j)
      os << (j ? ", " : "") << json_number(series_[i].second[j]);
    os << "]";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
