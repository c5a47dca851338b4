// Parallel execution core: a small fixed-size thread pool with
// parallel_for / parallel_reduce primitives used by the leaf algorithms
// (sigma^2_N sweeps, Kasdin block convolution, ...).
//
// Design rules (docs/ARCHITECTURE.md §5):
//  * Determinism first. Work is split into chunks whose boundaries depend
//    only on (range, grain) — never on the number of threads — and
//    reductions combine per-chunk results in chunk order. A computation
//    built on these primitives is bit-identical for PTRNG_THREADS=1 and
//    PTRNG_THREADS=64.
//  * No nesting. A task that itself calls parallel_for runs its inner
//    loop serially on the calling worker; only the outermost loop fans
//    out, so the pool holds at most one job and stays queue-simple.
//  * The calling thread participates: a pool of size 1 executes
//    everything inline with zero synchronization overhead.
//
// Load balancing: chunks are claimed one at a time from a shared atomic
// index, so with grain 1 a fast lane simply claims the next index while
// a slow one is still busy. Uneven work (the campaign's shards) balances
// dynamically; only the execution order varies, and a body that writes
// per-index slots gets identical results at any width.
//
// Thread count resolution: PTRNG_THREADS environment variable if set to
// a positive integer, else std::thread::hardware_concurrency(). The
// global pool reads it once at first use; ThreadPool::resize() (benches,
// tests) overrides it afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ptrng {

/// Thread count the global pool starts with: PTRNG_THREADS if set to a
/// positive integer, else hardware concurrency (>= 1). Re-reads the
/// environment on every call.
[[nodiscard]] std::size_t configured_thread_count();

/// Derives a decorrelated per-chunk seed from a base seed, so algorithms
/// that draw randomness per chunk stay independent of the thread count
/// (SplitMix64 mix of base and chunk index).
[[nodiscard]] std::uint64_t chunk_seed(std::uint64_t base,
                                       std::uint64_t chunk) noexcept;

/// The auto-grain rule (grain == 0) shared by parallel_for and
/// parallel_reduce: ~64 chunks, computed from the range ALONE — never
/// the thread count — so chunk boundaries, chunk_seed streams, and fold
/// order are identical for any pool width.
[[nodiscard]] constexpr std::size_t auto_grain(std::size_t range) noexcept {
  const std::size_t grain = (range + 63) / 64;
  return grain ? grain : 1;
}

/// Fixed-size worker pool. The calling thread always participates in a
/// parallel_for, so `threads == 1` means "no worker threads, run inline".
class ThreadPool {
 public:
  /// threads == 0 resolves via configured_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (worker threads + the calling thread).
  [[nodiscard]] std::size_t thread_count() const noexcept;

  /// Joins all workers and respawns with the new width (0 = reconfigure
  /// from the environment). Must not be called from inside a pool task.
  void resize(std::size_t threads);

  /// Splits [begin, end) into chunks of `grain` indices (last chunk may
  /// be short) and invokes body(chunk_begin, chunk_end) for each, across
  /// the pool. grain == 0 picks a grain that yields ~64 chunks — a
  /// function of the range alone, so chunk boundaries (and anything
  /// derived from them, like chunk_seed streams) never depend on the
  /// thread count. Blocks until every chunk finished; rethrows the
  /// first exception a chunk threw. Calls from inside a pool task run
  /// the whole range inline (no nesting).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// The process-wide pool every leaf algorithm shares. Created on first
  /// use with configured_thread_count() threads.
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_;
};

/// parallel_for on the global pool.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, grain, body);
}

/// Deterministic map-reduce on `pool`: map(chunk_begin, chunk_end) -> T
/// per chunk, then combine(acc, chunk_result) folds the per-chunk values
/// **in chunk order**, so the result is independent of the thread count.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(ThreadPool& pool, std::size_t begin,
                                std::size_t end, std::size_t grain, T init,
                                Map&& map, Combine&& combine) {
  if (begin >= end) return init;
  if (grain == 0) grain = auto_grain(end - begin);
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  std::vector<T> partial(chunks, init);
  pool.parallel_for(begin, end, grain,
                    [&](std::size_t b, std::size_t e) {
                      partial[(b - begin) / grain] = map(b, e);
                    });
  T acc = init;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

/// parallel_reduce on the global pool.
template <typename T, typename Map, typename Combine>
[[nodiscard]] T parallel_reduce(std::size_t begin, std::size_t end,
                                std::size_t grain, T init, Map&& map,
                                Combine&& combine) {
  return parallel_reduce(ThreadPool::global(), begin, end, grain,
                         std::move(init), std::forward<Map>(map),
                         std::forward<Combine>(combine));
}

}  // namespace ptrng
