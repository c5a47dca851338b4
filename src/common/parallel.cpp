#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace ptrng {

namespace {

// True on a pool worker thread, and on a caller thread while it executes
// chunks of its own parallel_for — both must not fan out again.
thread_local bool t_inside_pool_task = false;

}  // namespace

std::size_t configured_thread_count() {
  if (const char* env = std::getenv("PTRNG_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

std::uint64_t chunk_seed(std::uint64_t base, std::uint64_t chunk) noexcept {
  // The (chunk+1)-th output of the stream SplitMix64(base) would
  // produce, addressed in O(1) by pre-advancing the state `chunk`
  // golden-ratio increments (SplitMix64's per-call state step).
  SplitMix64 gen(base + chunk * 0x9e3779b97f4a7c15ULL);
  return gen.next();
}

struct ThreadPool::Impl {
  // One in-flight parallel_for, shared by the caller and every worker that
  // wakes up for it. Heap-held via shared_ptr so a slow worker's final
  // (empty) chunk grab can never touch freed memory.
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    std::size_t end = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    // Runs chunks until the shared index is exhausted. Every claimed
    // index is counted exactly once (cancelled ones are claimed and
    // skipped), so `remaining` always drains to zero. Returns after its
    // last decrement of `remaining`; never touches the Job afterwards.
    void run(Impl& pool) {
      std::size_t done = 0;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= chunks) break;
        if (!cancelled.load(std::memory_order_relaxed)) {
          const std::size_t b = begin + i * grain;
          const std::size_t e = std::min(end, b + grain);
          try {
            (*body)(b, e);
          } catch (...) {
            {
              const std::lock_guard<std::mutex> lock(error_mutex);
              if (!error) error = std::current_exception();
            }
            // Skip chunks nobody started yet; started ones still finish.
            cancelled.store(true, std::memory_order_relaxed);
          }
        }
        ++done;
      }
      if (done != 0 &&
          remaining.fetch_sub(done, std::memory_order_acq_rel) == done) {
        const std::lock_guard<std::mutex> lock(pool.mutex);
        pool.done_cv.notify_all();
      }
    }
  };

  // Atomic because parallel_for/thread_count read it without taking
  // submit_mutex while resize() (which holds submit_mutex) rewrites it.
  std::atomic<std::size_t> width{1};
  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::shared_ptr<Job> job;       // guarded by mutex
  std::uint64_t job_seq = 0;      // bumped per submitted job
  bool stopping = false;
  std::mutex submit_mutex;        // serializes concurrent parallel_for calls

  void worker_main() {
    t_inside_pool_task = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> j;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stopping || job_seq != seen; });
        if (stopping) return;
        seen = job_seq;
        j = job;
      }
      if (j) j->run(*this);
    }
  }

  void spawn(std::size_t threads) {
    width = threads;
    for (std::size_t i = 0; i + 1 < threads; ++i)
      workers.emplace_back([this] { worker_main(); });
  }

  void join_all() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (auto& w : workers) w.join();
    workers.clear();
    stopping = false;
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  impl_->spawn(threads ? threads : configured_thread_count());
}

ThreadPool::~ThreadPool() {
  impl_->join_all();
  delete impl_;
}

std::size_t ThreadPool::thread_count() const noexcept { return impl_->width; }

void ThreadPool::resize(std::size_t threads) {
  PTRNG_EXPECTS(!t_inside_pool_task);
  const std::lock_guard<std::mutex> submit(impl_->submit_mutex);
  impl_->join_all();
  impl_->spawn(threads ? threads : configured_thread_count());
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  if (grain == 0) grain = auto_grain(range);
  const std::size_t chunks = (range + grain - 1) / grain;

  // Serial path: width 1, nested call, or nothing to share. Runs the same
  // chunk boundaries in order, so chunk-indexed reductions and per-chunk
  // seeding behave identically to the threaded path.
  if (impl_->width == 1 || chunks == 1 || t_inside_pool_task) {
    for (std::size_t i = 0; i < chunks; ++i) {
      const std::size_t b = begin + i * grain;
      body(b, std::min(end, b + grain));
    }
    return;
  }

  const std::lock_guard<std::mutex> submit(impl_->submit_mutex);
  auto j = std::make_shared<Impl::Job>();
  j->body = &body;
  j->begin = begin;
  j->end = end;
  j->grain = grain;
  j->chunks = chunks;
  j->remaining.store(chunks, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->job = j;
    ++impl_->job_seq;
  }
  impl_->work_cv.notify_all();

  // The caller is one of the execution lanes; guard against re-entrant
  // fan-out from inside the body.
  t_inside_pool_task = true;
  j->run(*impl_);
  t_inside_pool_task = false;

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->done_cv.wait(lock, [&] {
      return j->remaining.load(std::memory_order_acquire) == 0;
    });
    impl_->job.reset();
  }
  if (j->error) std::rethrow_exception(j->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ptrng
