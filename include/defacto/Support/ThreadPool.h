//===- ThreadPool.h - Fixed-size worker pool -------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for the exploration engine. Tasks are queued
/// FIFO and handed to the first free worker; submit() returns a future
/// the caller can block on, so a batch can run many jobs at once and an
/// exhaustive or random search can estimate its candidate list in
/// parallel before reducing it in its own deterministic order.
///
/// The pool is deliberately small and boring: one shared queue, a
/// condition variable, and clean shutdown (the destructor drains the
/// queue and joins every worker). Waiting on a future inside a worker is
/// safe only when the awaited task is already running on another worker
/// or queued ahead; the exploration engine never queues dependent tasks.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_THREADPOOL_H
#define DEFACTO_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace defacto {

/// CPUs this process may run on: the size of its affinity mask on Linux
/// (so a taskset or cgroup-pinned process sees its share, not the
/// machine's), std::thread::hardware_concurrency() elsewhere or when the
/// mask cannot be read. Never less than one. The default worker count of
/// the batch driver and the daemon.
unsigned availableCores();

/// Fixed worker count, FIFO task queue, future-based results.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (at least one).
  explicit ThreadPool(unsigned NumThreads);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs every queued task, then joins all workers.
  ~ThreadPool();

  unsigned size() const { return Workers.size(); }

  /// Enqueues \p Task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> Task);

  /// Enqueues a value-returning task.
  template <typename Fn> auto async(Fn F) -> std::future<decltype(F())> {
    using R = decltype(F());
    auto P = std::make_shared<std::promise<R>>();
    std::future<R> Fut = P->get_future();
    submit([P, F = std::move(F)]() mutable {
      if constexpr (std::is_void_v<R>) {
        F();
        P->set_value();
      } else {
        P->set_value(F());
      }
    });
    return Fut;
  }

  /// Blocks until the queue is empty and every worker is idle.
  void wait();

  /// Tasks executed since construction.
  uint64_t tasksRun() const;

  /// Tasks queued or currently executing — the live backlog a metrics
  /// gauge watches. Point-in-time under the pool lock.
  uint64_t queueDepth() const;

private:
  void workerLoop();

  mutable std::mutex M;
  std::condition_variable WorkReady;
  std::condition_variable AllIdle;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Workers;
  unsigned Active = 0;
  uint64_t Executed = 0;
  bool Stopping = false;
};

} // namespace defacto

#endif // DEFACTO_SUPPORT_THREADPOOL_H
