#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::uint32_t Tracer::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::open(std::uint32_t name, std::uint64_t units) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = innermost_;
  rec.op = op_;
  rec.units = units;
  spans_.push_back(rec);
  innermost_ = static_cast<std::uint32_t>(spans_.size() - 1);
  // Stamp the start last, so the bookkeeping above is not inside it.
  spans_.back().start_ns = now_ns();
  return innermost_;
}

void Tracer::close(std::uint32_t span) noexcept {
  const std::int64_t end = now_ns();
  SpanRecord& rec = spans_[span];
  rec.end_ns = end;
  innermost_ = rec.parent;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name,start_ns,end_ns,parent,op,units\n";
  for (const SpanRecord& s : spans_) {
    out << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << ','
        << (s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent))
        << ',' << s.op << ',' << s.units << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent != kNoSpan && s.parent < spans.size())
      children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the covered prefix so far
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, hi);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, LayerStats> layer_stats(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  const auto self = self_times(spans);
  std::map<std::string, LayerStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    LayerStats& l = out[tracer.names()[s.name]];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++l.spans;
    l.units += s.units;
    l.total_ns += dur;
    l.self_ns += self[i];
    l.durations_ns.push_back(static_cast<double>(dur));
    l.self_ns_each.push_back(static_cast<double>(self[i]));
  }
  return out;
}

}  // namespace perfbench
