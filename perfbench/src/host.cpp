#include "host.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/parallel.hpp"
#include "common/simd.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// Value of the first "key<ws>: value" line of a /proc file, or "".
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    // Require the key to end right before the padding and colon.
    const std::string head = line.substr(0, colon);
    if (head.find_first_not_of(" \t", key.size()) != std::string::npos)
      continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  for (std::string f; in >> f;)
    if (f == flag) return true;
  return false;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

}  // namespace

void record_host(Result& result, const std::string& git_head) {
  const std::string flags = proc_field("/proc/cpuinfo", "flags");
  const auto yes_no = [&](const char* f) {
    return has_flag(flags, f) ? std::string("yes") : std::string("no");
  };
  result.note("host.cpu_model", proc_field("/proc/cpuinfo", "model name"));
  result.note("host.nproc", std::to_string(online_cpus()));
  result.note("host.avx2", yes_no("avx2"));
  result.note("host.avx512f", yes_no("avx512f"));
  result.note("host.sha_ni", yes_no("sha_ni"));
  result.note("host.ptrng_threads", env_or("PTRNG_THREADS", "(unset)"));
  result.note("host.pool_width",
              std::to_string(ptrng::ThreadPool::global().thread_count()));
  result.note("host.ptrng_simd", env_or("PTRNG_SIMD", "(unset)"));
  result.note("host.simd_backend",
              std::string(ptrng::simd::compiled_backend()) +
                  (ptrng::simd::active() ? " (active)" : " (inactive)"));
  result.note("host.compiler", PERFBENCH_COMPILER);
  result.note("host.build_type", PERFBENCH_BUILD_TYPE);
  result.note("host.git_head", git_head.empty() ? "unknown" : git_head);
}

double peak_rss_mb() {
  // "VmHWM:   12345 kB"
  const std::string v = proc_field("/proc/self/status", "VmHWM");
  return std::strtod(v.c_str(), nullptr) / 1024.0;
}

int live_threads() {
  return std::atoi(proc_field("/proc/self/status", "Threads").c_str());
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace perfbench
