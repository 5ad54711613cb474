#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "util/error.hpp"

namespace dot::util {

namespace {

unsigned resolve_threads(unsigned threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::mutex& global_pool_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) : parallelism_(resolve_threads(threads)) {
  workers_.reserve(parallelism_ - 1);
  for (unsigned i = 0; i + 1 < parallelism_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
  if (workers_.empty()) {
    // No helpers: parallel_for callers drain their own chunks, so a
    // submitted helper job would only ever find an empty range. Run it
    // now to keep submit() usable on a single-thread pool.
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::set_global_thread_count(unsigned threads) {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  slot.reset();  // join the old workers before spawning replacements
  slot = std::make_unique<ThreadPool>(threads);
}

unsigned ThreadPool::global_thread_count() {
  return global().thread_count();
}

namespace {

/// Chunk c (of `chunk` indices, out of `count`) failed with `error`, as
/// a ParallelError: chunk index, index range and the original what(),
/// with the original exception kept reachable.
ParallelError chunk_error(std::size_t c, std::size_t chunk, std::size_t count,
                          std::exception_ptr error) {
  std::string what;
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
    what = "unknown exception";
  }
  const std::size_t hi = std::min(count, (c + 1) * chunk);
  return ParallelError("parallel section: chunk " + std::to_string(c) +
                           " (indices [" + std::to_string(c * chunk) + ", " +
                           std::to_string(hi) + ")) failed: " + what,
                       c, error);
}

}  // namespace

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t parallelism = pool.thread_count();
  const std::size_t chunk =
      std::max<std::size_t>(1, count / (parallelism * 8));
  const std::size_t chunks = (count + chunk - 1) / chunk;
  auto run_chunk = [&body, chunk, count](std::size_t c) {
    const std::size_t hi = std::min(count, (c + 1) * chunk);
    for (std::size_t i = c * chunk; i < hi; ++i) body(i);
  };

  if (parallelism <= 1 || chunks <= 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      try {
        run_chunk(c);
      } catch (...) {
        throw chunk_error(c, chunk, count, std::current_exception());
      }
    }
    return;
  }

  // Shared loop state. Helper jobs hold the shared_ptr, so a helper
  // that is scheduled long after the loop finished (pool was busy)
  // still finds valid state -- it sees next >= chunks and exits without
  // calling `run`, whose captured `body` may be gone by then.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::size_t chunks = 0;
    std::function<void(std::size_t)> run;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t failed_chunk = 0;
    std::exception_ptr error;  ///< The lowest-index failed chunk's.
  };
  auto state = std::make_shared<State>();
  state->chunks = chunks;
  state->run = run_chunk;

  auto drain = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t c = s->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s->chunks) return;
      // Once something failed, the remaining chunks are skipped.
      if (!s->failed.load(std::memory_order_relaxed)) {
        try {
          s->run(c);
        } catch (...) {
          std::lock_guard<std::mutex> lock(s->mutex);
          // Arrival order depends on scheduling; chunk order does not.
          if (!s->error || c < s->failed_chunk) {
            s->failed_chunk = c;
            s->error = std::current_exception();
          }
          s->failed.store(true, std::memory_order_relaxed);
        }
      }
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->chunks) {
        std::lock_guard<std::mutex> lock(s->mutex);
        s->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(parallelism - 1, chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    pool.submit([state, drain] { drain(state); });
  drain(state);  // the caller participates; guarantees forward progress

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->chunks;
  });
  if (state->error)
    throw chunk_error(state->failed_chunk, chunk, count, state->error);
}

}  // namespace dot::util
