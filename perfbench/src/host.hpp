// Host record and process gauges: which machine and build produced a
// number, how much memory the process peaked at, how many threads it ran.
#pragma once

#include <string>

#include "report.hpp"

namespace perfbench {

/// Adds the host record to `result` as notes: CPU model, nproc, the
/// AVX2/AVX-512/SHA-NI flags, PTRNG_THREADS and the pool width,
/// PTRNG_SIMD and the active SIMD backend, compiler, build type and the
/// source revision.
void record_host(Result& result, const std::string& git_head);

/// Peak resident set of this process [MiB] (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Threads this process runs right now.
[[nodiscard]] int live_threads();

/// Online CPUs.
[[nodiscard]] int online_cpus();

}  // namespace perfbench
