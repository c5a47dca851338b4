// Host-speed probe: a fixed piece of throughput-bound work, timed between
// the ops of an end-to-end loop, so each op's latency can be read against
// the speed the shared host gave the process at that moment.
//
// The work is the SHA-256 compression function applied to one fixed block
// a fixed number of times, chained. It is the benchmark's own code, not
// the library's, so no change to the library changes the probe.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Compressions per probe: about 80 us of work on a 4-vCPU Xeon.
inline constexpr int kProbeBlocks = 256;

/// A loop runs a probe before an op once this much time has passed since
/// the previous probe ended, and one at the end of every slice.
inline constexpr std::int64_t kProbeIntervalNs = 4'000'000;

/// SHA-256 state after `blocks` chained compressions, from the initial
/// hash value, of the padding block of the empty message. After one
/// compression it is the digest SHA-256("").
[[nodiscard]] std::array<std::uint32_t, 8> probe_state(int blocks);

/// True when probe_state(1) is the digest SHA-256(""): the probe does
/// the work it is meant to do.
[[nodiscard]] bool probe_computes_sha256();

/// Runs kProbeBlocks compressions and returns their wall time [ns].
[[nodiscard]] double probe_host_ns();

/// The probe time the normalized figures are scaled to [ns]: what the
/// probe takes on the unloaded 4-vCPU Xeon this benchmark was tuned on.
/// A normalized time is what the op would take on a host where the probe
/// takes this long.
inline constexpr double kProbeNominalNs = 80'000.0;

/// Op latencies read against the host's speed: op i becomes
/// op_ms[i] * kProbeNominalNs / around_i, where around_i is the mean of
/// the probe run last before op i (op_probe[i]) and the next probe.
[[nodiscard]] std::vector<double> speed_normalized(
    const std::vector<double>& op_ms,
    const std::vector<std::uint32_t>& op_probe,
    const std::vector<double>& probe_ns);

/// One timed piece of work: its wall time and that time read against the
/// probes run just before and just after it, as speed_normalized does
/// for an op [s].
struct Timed {
  double wall_s = 0.0;
  double normalized_s = 0.0;
};

/// Runs `work` between two probes and times it.
template <typename Work>
[[nodiscard]] Timed time_normalized(Work&& work) {
  const double before = probe_host_ns();
  const std::int64_t t0 = now_ns();
  work();
  const std::int64_t t1 = now_ns();
  const double after = probe_host_ns();
  const double wall_s = (t1 - t0) * 1e-9;
  return {wall_s, wall_s * kProbeNominalNs / (0.5 * (before + after))};
}

}  // namespace perfbench
