// Shared parallel execution layer: a fixed-size thread pool plus
// chunked parallel_for / order-preserving parallel_map built on top.
//
// Design rules that make the campaigns deterministic and deadlock-free:
//
//  * Work is identified by index, never by arrival order. parallel_map
//    writes result i into slot i, so the output is bit-identical no
//    matter how chunks are scheduled or how many threads run.
//  * The calling thread always participates in the loop it issued.
//    Helpers from the pool join in if they are free; if every pool
//    worker is busy (e.g. the five macro campaigns already occupy the
//    pool and each issues an inner loop), the caller simply drains its
//    own chunks inline. Nested parallel sections therefore cannot
//    deadlock and need no special casing at the call site.
//  * First error wins: once a chunk throws, chunks not yet started are
//    skipped, and a ParallelError naming the lowest failed chunk (with
//    its original exception reachable) is rethrown on the calling
//    thread once the loop has quiesced. The campaign's per-class guard
//    catches circuit failures inside its loop body, so only
//    infrastructure failures reach this path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dot::util {

/// Fixed-size worker pool. `thread_count()` is the configured
/// parallelism including the calling thread, so a pool configured for
/// N threads spawns N-1 workers; a pool of 1 spawns none and every
/// parallel_for runs inline on the caller.
class ThreadPool {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (helper workers + the calling thread).
  unsigned thread_count() const { return parallelism_; }

  /// Enqueues a job; pool workers pick it up in FIFO order. Jobs must
  /// not block waiting for later-enqueued jobs (parallel_for obeys
  /// this: its helpers never wait, only the issuing caller does).
  void submit(std::function<void()> job);

  /// The process-wide pool used by parallel_for / parallel_map.
  /// Created on first use with hardware_concurrency() threads.
  static ThreadPool& global();

  /// Replaces the global pool (the --threads=N knob). Must not be
  /// called while parallel work is in flight. threads == 0 restores
  /// the hardware default.
  static void set_global_thread_count(unsigned threads);
  static unsigned global_thread_count();

 private:
  void worker_loop();

  unsigned parallelism_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs body(i) for every i in [0, count), split into about eight
/// chunks per thread. body must be safe to call concurrently from
/// multiple threads.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Maps fn over [0, count) preserving index order: result[i] == fn(i)
/// bit-for-bit regardless of thread count. The result type must be
/// default-constructible (slots are pre-allocated, then filled).
template <typename Fn>
auto parallel_map(std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> results(count);
  parallel_for(count, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace dot::util
