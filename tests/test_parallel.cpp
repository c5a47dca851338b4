// The parallel execution core (common/parallel.hpp) and the two hot paths
// ported onto it. The load-bearing property is determinism: identical
// results for any thread count, including the pool-of-1 inline path.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/math_utils.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "measurement/sigma_n_estimator.hpp"
#include "noise/filter_bank.hpp"

namespace {

using namespace ptrng;

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, WidthOneRunsInlineAndShutsDownCleanly) {
  // Pools of several widths started and destroyed back to back; each must
  // join its workers without hanging or leaking work.
  for (std::size_t width : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(width);
    EXPECT_EQ(pool.thread_count(), width);
    std::atomic<int> sum{0};
    pool.parallel_for(0, 64, 0, [&](std::size_t b, std::size_t e) {
      sum += static_cast<int>(e - b);
    });
    EXPECT_EQ(sum.load(), 64);
  }
}

TEST(ThreadPool, ResizeRespawnsWorkers) {
  ThreadPool pool(1);
  pool.resize(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 256, 1, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 256);
  pool.resize(2);
  EXPECT_EQ(pool.thread_count(), 2u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  for (std::size_t width : {1u, 4u}) {
    ThreadPool pool(width);
    EXPECT_THROW(
        pool.parallel_for(0, 100, 1,
                          [&](std::size_t b, std::size_t) {
                            if (b == 57) throw std::runtime_error("chunk 57");
                          }),
        std::runtime_error);
    // The pool must remain usable after a failed job.
    std::atomic<int> sum{0};
    pool.parallel_for(0, 16, 1, [&](std::size_t b, std::size_t e) {
      sum += static_cast<int>(e - b);
    });
    EXPECT_EQ(sum.load(), 16);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    // Nested fan-out must degrade to a serial loop on this worker rather
    // than deadlocking or oversubscribing.
    pool.parallel_for(0, 10, 3, [&](std::size_t b, std::size_t e) {
      inner_total += static_cast<int>(e - b);
    });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ThreadPool, ConcurrentSubmittersEachCoverTheirRange) {
  // Two threads submit to one pool at once: submissions serialize on the
  // pool's submit lock, and each caller's range is covered exactly once.
  ThreadPool pool(4);
  std::vector<int> a(2000, 0), b(3000, 0);
  const auto cover = [&pool](std::vector<int>& hits) {
    for (int round = 0; round < 20; ++round)
      pool.parallel_for(0, hits.size(), 1,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                        });
  };
  std::thread first(cover, std::ref(a));
  std::thread second(cover, std::ref(b));
  first.join();
  second.join();
  for (int h : a) EXPECT_EQ(h, 20);
  for (int h : b) EXPECT_EQ(h, 20);
}

namespace {

// Deliberately skewed per-index work: a few indices burn ~100x the rest
// (the campaign's uneven-shard shape). Returns a value that depends on
// every loop iteration so the work cannot be optimized away.
double skewed_work(std::size_t i) {
  const std::size_t iters = (i % 16 == 0) ? 20'000 : 200;
  double acc = static_cast<double>(i + 1);
  for (std::size_t k = 0; k < iters; ++k)
    acc += 1.0 / (acc + static_cast<double>(k));
  return acc;
}

}  // namespace

TEST(ThreadPool, SkewedWorkloadResultsInvariantAcrossWidths) {
  // At grain 1 lanes claim indices one at a time, so execution order is
  // dynamic; per-index results land in per-index slots, so the result
  // vector must be bit-identical at any width.
  const auto run = [](std::size_t width) {
    ThreadPool pool(width);
    std::vector<double> out(256, 0.0);
    pool.parallel_for(0, out.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) out[i] = skewed_work(i);
    });
    return out;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], two[i]) << "index " << i;
    EXPECT_EQ(one[i], eight[i]) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- dynamic load balancing ----------------------------------------------
// Lanes claim chunks one at a time from the job's shared index, so a lane
// that finishes early takes over chunks a busy lane would otherwise have
// run. These cases drive that path under uneven work and across widths.

TEST(WorkStealing, CoversEveryIndexExactlyOnce) {
  // Skewed per-chunk cost makes the lanes claim very different numbers of
  // chunks; every index must still run exactly once at each width.
  for (std::size_t width : {2u, 4u, 8u}) {
    ThreadPool pool(width);
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    pool.parallel_for(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
      volatile double sink = skewed_work(b);
      (void)sink;
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "width " << width << " index " << i;
  }
}

TEST(WorkStealing, ExceptionPropagatesAndPoolStaysUsable) {
  for (std::size_t width : {1u, 4u}) {
    ThreadPool pool(width);
    EXPECT_THROW(
        pool.parallel_for(0, 100, 1,
                          [&](std::size_t b, std::size_t) {
                            if (b == 57) throw std::runtime_error("chunk 57");
                          }),
        std::runtime_error);
    // Several jobs after the failed one: each must start from a fresh
    // claim index and drain completely, or a later wait would hang or
    // skip chunks.
    for (int round = 0; round < 3; ++round) {
      std::atomic<int> sum{0};
      pool.parallel_for(0, 16, 1, [&](std::size_t b, std::size_t e) {
        sum += static_cast<int>(e - b);
      });
      EXPECT_EQ(sum.load(), 16) << "width " << width << " round " << round;
    }
  }
}

TEST(WorkStealing, NestedFanoutExecutesEveryInnerIndex) {
  // Two levels of nesting below the outer loop: the inner calls run
  // inline on whichever lane claimed the outer chunk, and every inner
  // index is still executed.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    pool.parallel_for(0, 10, 3, [&](std::size_t b, std::size_t e) {
      pool.parallel_for(b, e, 1, [&](std::size_t bb, std::size_t ee) {
        inner_total += static_cast<int>(ee - bb);
      });
    });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(WorkStealing, InsideDeterministicTaskRunsInline) {
  // A parallel_for issued from inside a chunk must not fan out: it runs
  // on the thread that owns the outer chunk, with the same chunk
  // boundaries, in chunk order.
  ThreadPool pool(4);
  struct Seen {
    std::thread::id outer;
    std::vector<std::thread::id> inner_threads;
    std::vector<std::size_t> inner_begins;
  };
  std::vector<Seen> seen(4);
  pool.parallel_for(0, seen.size(), 1, [&](std::size_t b, std::size_t) {
    Seen& s = seen[b];
    s.outer = std::this_thread::get_id();
    pool.parallel_for(0, 12, 5, [&](std::size_t ib, std::size_t) {
      s.inner_threads.push_back(std::this_thread::get_id());
      s.inner_begins.push_back(ib);
    });
  });
  for (const Seen& s : seen) {
    EXPECT_EQ(s.inner_begins, (std::vector<std::size_t>{0, 5, 10}));
    for (const auto& id : s.inner_threads) EXPECT_EQ(id, s.outer);
  }
}

TEST(WorkStealing, EmptyRangeIsANoOp) {
  // Empty and reversed ranges publish no job, at grain 1 and at the auto
  // grain; the pool then runs a real job normally.
  ThreadPool pool(4);
  bool called = false;
  const auto mark = [&](std::size_t, std::size_t) { called = true; };
  pool.parallel_for(5, 5, 1, mark);
  pool.parallel_for(5, 5, 0, mark);
  pool.parallel_for(9, 5, 1, mark);
  EXPECT_FALSE(called);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 32, 1, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 32);
}

TEST(ThreadPool, ReduceIsBitIdenticalAcrossWidths) {
  // Floating-point accumulation in chunk order: any reordering across
  // thread counts would change the rounding and fail the exact compare.
  const auto run = [](std::size_t width) {
    ThreadPool pool(width);
    return parallel_reduce(
        pool, 0, 100'000, 997, 0.0,
        [](std::size_t b, std::size_t e) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i)
            s += 1.0 / static_cast<double>(i + 1);
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(3));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, EnvOverrideControlsConfiguredCount) {
  ASSERT_EQ(setenv("PTRNG_THREADS", "3", 1), 0);
  EXPECT_EQ(configured_thread_count(), 3u);
  ASSERT_EQ(setenv("PTRNG_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(configured_thread_count(), 1u);  // falls back to hardware
  ASSERT_EQ(unsetenv("PTRNG_THREADS"), 0);
  EXPECT_GE(configured_thread_count(), 1u);
}

TEST(ChunkSeed, DecorrelatedAndDeterministic) {
  EXPECT_EQ(chunk_seed(42, 7), chunk_seed(42, 7));
  EXPECT_NE(chunk_seed(42, 7), chunk_seed(42, 8));
  EXPECT_NE(chunk_seed(42, 7), chunk_seed(43, 7));
}

// --- determinism of the ported hot paths across thread counts ------------

class GlobalPoolWidth {
 public:
  explicit GlobalPoolWidth(std::size_t width) {
    ThreadPool::global().resize(width);
  }
  ~GlobalPoolWidth() { ThreadPool::global().resize(0); }
};

TEST(SweepDeterminism, IdenticalForOneAndEightThreads) {
  std::vector<double> jitter(200'000);
  GaussianSampler gauss(0xabc123);
  for (auto& j : jitter) j = 1e-12 * gauss();
  const auto grid = log_integer_grid(10, 2'000, 12);

  std::vector<measurement::Sigma2nPoint> one, eight;
  {
    GlobalPoolWidth width(1);
    one = measurement::sigma2_n_sweep(jitter, grid);
  }
  {
    GlobalPoolWidth width(8);
    eight = measurement::sigma2_n_sweep(jitter, grid);
  }
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].n, eight[i].n);
    EXPECT_EQ(one[i].sigma2, eight[i].sigma2);  // bit-identical
    EXPECT_EQ(one[i].ci_lo, eight[i].ci_lo);
    EXPECT_EQ(one[i].ci_hi, eight[i].ci_hi);
    EXPECT_EQ(one[i].samples, eight[i].samples);
    EXPECT_EQ(one[i].eff_dof, eight[i].eff_dof);
  }
}

TEST(FilterBankFill, ThreadCountInvariant) {
  // The per-stage fan-out folds stage contributions in stage order, so
  // the stream must be bit-identical for any pool width.
  noise::FilterBankFlicker::Config cfg;
  cfg.amplitude = 1e-2;
  cfg.fs = 1.0;
  cfg.f_min = 1e-4;
  cfg.f_max = 0.25;
  cfg.seed = 0xf113;

  std::vector<double> one(30'000), eight(one.size());
  {
    GlobalPoolWidth width(1);
    noise::FilterBankFlicker gen(cfg);
    gen.fill(one);
  }
  {
    GlobalPoolWidth width(8);
    noise::FilterBankFlicker gen(cfg);
    gen.fill(eight);
  }
  for (std::size_t i = 0; i < one.size(); ++i) EXPECT_EQ(one[i], eight[i]);
}

}  // namespace
