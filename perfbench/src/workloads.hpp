// The three workloads and the closed-loop runner they share.
//
// Every workload is one client in a closed loop: the next op starts when
// the previous one returned. The end-to-end run times the composed
// library calls with tracing off; the traced run repeats the same ops
// with spans around each layer call, next to an untraced baseline of the
// same ops, and adds standalone probes of the layers an op cannot show
// from outside.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "host.hpp"
#include "report.hpp"
#include "speed_probe.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  /// The run's --seed; each input (a source, the campaign) takes
  /// chunk_seed(seed, role) with its own role number.
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the end-to-end loop
};

/// The end-to-end loop runs in this many slices of equal time, each after
/// one timed set-up, so the set-ups sample the host's speed across the
/// run as the ops do. setup_s is the median of the slices' set-ups.
inline constexpr int kSetupRepetitions = 9;

/// p99 needs 1000 samples to have 10 beyond it, so the end-to-end loop
/// runs on past its time until it has them (up to kLoopCapSeconds).
inline constexpr std::size_t kMinEndToEndOps = 1000;
inline constexpr std::size_t kMinSliceOps =
    (kMinEndToEndOps + kSetupRepetitions - 1) / kSetupRepetitions;
inline constexpr double kLoopCapSeconds = 120.0;
/// Room for every op a loop can run within kLoopCapSeconds: the fastest
/// op, a serve fill, takes about 1 ms on a 4-vCPU Xeon.
inline constexpr std::size_t kMaxLoopOps = std::size_t{1} << 20;
/// The thread count is sampled at most this often while a loop runs.
inline constexpr std::int64_t kThreadSampleNs = 250'000'000;

/// Per-op latencies and wall time of one closed loop, which may run in
/// slices with untimed work between them, and the host-speed probes
/// (speed_probe.hpp) timed between its ops, outside their timing.
struct Loop {
  explicit Loop(std::size_t granule = 1) : granule(granule) {
    // Reserved once: growing by reallocation would make peak_rss_mb
    // depend on where the last doubling fell. Untouched pages cost no RSS.
    op_ms.reserve(kMaxLoopOps);
    op_probe.reserve(kMaxLoopOps);
    probe_ns.reserve(kMaxLoopOps);
  }

  std::vector<double> op_ms;
  double elapsed_s = 0.0;  ///< wall time of the slices, summed
  int max_threads = 0;     ///< most threads seen in the sampled checks
  std::size_t granule = 1;  ///< every slice stops on a multiple of this
  std::vector<double> probe_ns;          ///< each probe's time, in order
  std::vector<std::uint32_t> op_probe;   ///< per op: last probe before it

  [[nodiscard]] std::size_t ops() const noexcept { return op_ms.size(); }
  [[nodiscard]] double ops_per_s() const noexcept {
    return elapsed_s > 0.0 ? static_cast<double>(ops()) / elapsed_s : 0.0;
  }
};

/// Adds one slice to `loop`: runs op(i) back to back, i counting every op
/// of the loop so far, until `seconds` have passed and the slice ran at
/// least `min_ops`. It stops only when the loop's op count is a whole
/// multiple of its granule (so every run covers the same op mix), and
/// never once the loop has run kLoopCapSeconds. The process's threads are
/// counted at the start, every kThreadSampleNs and at the end. A probe
/// runs first, then before an op once kProbeIntervalNs have passed since
/// the last one, and last. An op that throws counts as a failed op of
/// `result`.
template <typename Op>
void run_slice(Result& result, Loop& loop, double seconds,
               std::size_t min_ops, Op&& op) {
  loop.max_threads = std::max(loop.max_threads, live_threads());
  const std::size_t first = loop.ops();
  const std::int64_t t0 = now_ns();
  std::int64_t next_sample = t0 + kThreadSampleNs;
  std::int64_t next_probe = t0;
  for (;;) {
    if (now_ns() >= next_probe) {
      loop.probe_ns.push_back(probe_host_ns());
      next_probe = now_ns() + kProbeIntervalNs;
    }
    loop.op_probe.push_back(
        static_cast<std::uint32_t>(loop.probe_ns.size() - 1));
    const std::int64_t a = now_ns();
    try {
      op(loop.ops());
    } catch (const std::exception& e) {
      result.record_op(false, std::string("op threw: ") + e.what());
    }
    const std::int64_t b = now_ns();
    loop.op_ms.push_back((b - a) * 1e-6);
    if (b >= next_sample) {
      loop.max_threads = std::max(loop.max_threads, live_threads());
      next_sample = b + kThreadSampleNs;
    }
    if (loop.ops() % loop.granule != 0) continue;
    const double t = (b - t0) * 1e-9;
    if (loop.elapsed_s + t >= kLoopCapSeconds) break;
    if (t >= seconds && loop.ops() - first >= min_ops) break;
  }
  loop.probe_ns.push_back(probe_host_ns());
  loop.elapsed_s += (now_ns() - t0) * 1e-9;
  loop.max_threads = std::max(loop.max_threads, live_threads());
}

/// The traced run alternates untraced and traced slices of the same ops,
/// so host drift during the run hits both sides of trace.*.overhead_ratio
/// alike.
inline constexpr int kTraceSlices = 4;

/// Adds the end-to-end metrics, read against the host-speed probe:
/// ops_per_s (ops over their summed normalized latencies), op_p50_ms,
/// op_p99_ms, setup_s (median of the set-up repetitions) and peak_rss_mb.
/// The detail record keeps the wall-clock figures next to them: ops/s,
/// the latency median and tail rule with its sample count, the set-up
/// samples, the probe times and the per-second timeline.
void end_to_end_metrics(Result& result, const Loop& loop,
                        const std::vector<Timed>& setups);

/// Checks shared by every workload: the library pool is pinned to one
/// thread, and no sampled thread count (Loop::max_threads) exceeded
/// `max_threads` or nproc.
void check_threads(Result& result, int observed, int max_threads);

/// The checks of check_threads on given values.
void check_thread_use(Result& result, std::size_t pool_width, int observed,
                      int limit);

/// Adds trace.<workload>.overhead_ratio with both bases.
void overhead_metrics(Result& result, const std::string& workload,
                      const Loop& untraced, const Loop& traced);

/// How a traced section splits its share of the run between the
/// untraced baseline, the traced ops and the layer probes [s].
struct TraceBudget {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double probes_s = 0.0;
};
[[nodiscard]] TraceBudget trace_budget(double seconds);

void raw_end_to_end(const RunOptions& options, Result& result);
void raw_traced(const RunOptions& options, Result& result, Tracer& tracer);

void serve_end_to_end(const RunOptions& options, Result& result);
void serve_traced(const RunOptions& options, Result& result, Tracer& tracer);

void campaign_end_to_end(const RunOptions& options, Result& result);
void campaign_traced(const RunOptions& options, Result& result,
                     Tracer& tracer);

}  // namespace perfbench
