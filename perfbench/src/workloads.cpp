#include "workloads.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace perfbench {

void end_to_end_metrics(Result& result, const Loop& loop,
                        const std::vector<Timed>& setups) {
  // The timings are read against the host-speed probe (speed_probe.hpp);
  // the wall-clock figures stay in the detail record.
  result.check("speed probe computes SHA-256 and takes time",
               probe_computes_sha256() && !loop.probe_ns.empty() &&
                   *std::min_element(loop.probe_ns.begin(),
                                     loop.probe_ns.end()) > 0.0);
  const std::vector<double> norm_ms =
      speed_normalized(loop.op_ms, loop.op_probe, loop.probe_ns);
  double norm_total_ms = 0.0;
  for (const double ms : norm_ms) norm_total_ms += ms;
  result.metric("ops_per_s",
                static_cast<double>(loop.ops()) * 1000.0 / norm_total_ms,
                "1/s");
  result.metric("op_p50_ms", median(norm_ms), "ms");
  result.metric("op_p99_ms", percentile(norm_ms, 99.0), "ms");
  std::vector<double> setup_s, setup_wall_s;
  for (const Timed& t : setups) {
    setup_s.push_back(t.normalized_s);
    setup_wall_s.push_back(t.wall_s);
  }
  result.metric("setup_s", median(setup_s), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.latency("op_ms_normalized", norm_ms);
  result.latency("op_ms_wall", loop.op_ms);
  result.note("wall.ops_per_s", json_number(loop.ops_per_s()));
  result.count("probes", static_cast<double>(loop.probe_ns.size()));
  result.note("probe.p5_ns", json_number(percentile(loop.probe_ns, 5.0)));
  result.note("probe.median_ns", json_number(median(loop.probe_ns)));
  // Ops finished in each second of the loop: shows host drift in a run.
  std::vector<double> per_second;
  double t_ms = 0.0;
  for (const double ms : loop.op_ms) {
    t_ms += ms;
    const auto second = static_cast<std::size_t>(t_ms / 1000.0);
    if (second >= per_second.size()) per_second.resize(second + 1, 0.0);
    per_second[second] += 1.0;
  }
  result.series("ops_per_second_timeline", per_second);
  result.count("ops", static_cast<double>(loop.ops()));
  result.series("setup_s_samples", setup_s);
  result.series("setup_wall_s_samples", setup_wall_s);
  result.note("loop_elapsed_s", json_number(loop.elapsed_s));
}

void check_threads(Result& result, int observed, int max_threads) {
  check_thread_use(result, ptrng::ThreadPool::global().thread_count(),
                   observed, std::min(max_threads, online_cpus()));
}

void check_thread_use(Result& result, std::size_t pool_width, int observed,
                      int limit) {
  result.check("library pool pinned to one thread", pool_width == 1,
               "pool width " + std::to_string(pool_width));
  result.check("sampled threads within limit", observed <= limit,
               std::to_string(observed) + " threads, limit " +
                   std::to_string(limit));
  result.count("threads_observed_max", observed);
}

void overhead_metrics(Result& result, const std::string& workload,
                      const Loop& untraced, const Loop& traced) {
  const std::string base = "trace." + workload + ".";
  const double ratio = untraced.ops_per_s() > 0.0
                           ? traced.ops_per_s() / untraced.ops_per_s()
                           : 0.0;
  result.metric(base + "overhead_ratio", ratio, "ratio");
  result.metric(base + "traced_ops_per_s", traced.ops_per_s(), "1/s");
  result.metric(base + "untraced_ops_per_s", untraced.ops_per_s(), "1/s");
}

TraceBudget trace_budget(double seconds) {
  // The traced run covers all three workloads in one process.
  const double share = seconds / 3.0;
  return {0.4 * share, 0.4 * share, 0.2 * share};
}

}  // namespace perfbench
