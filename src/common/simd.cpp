#include "common/simd.hpp"

#include <cstdlib>
#include <cstring>

namespace ptrng::simd {

namespace {

/// PTRNG_SIMD=off|0|scalar|false|no disables vector kernels for the
/// whole process — the env twin of the -DPTRNG_SIMD=OFF build switch,
/// cheap enough to flip per CI job without a rebuild.
bool env_disables_simd() noexcept {
  const char* value = std::getenv("PTRNG_SIMD");
  if (value == nullptr || *value == '\0') return false;
  for (const char* off : {"off", "OFF", "Off", "0", "scalar", "false", "no"})
    if (std::strcmp(value, off) == 0) return true;
  return false;
}

bool runtime_supported() noexcept {
#if PTRNG_SIMD_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#elif PTRNG_SIMD_NEON
  return true;  // NEON is baseline on aarch64
#else
  return false;
#endif
}

}  // namespace

const char* compiled_backend() noexcept {
#if PTRNG_SIMD_AVX2
  return "avx2";
#elif PTRNG_SIMD_NEON
  return "neon";
#else
  return "scalar";
#endif
}

namespace detail {

bool probe_enabled() noexcept {
  return runtime_supported() && !env_disables_simd();
}

bool probe_avx512() noexcept {
#if PTRNG_SIMD_AVX2
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

}  // namespace detail

}  // namespace ptrng::simd
