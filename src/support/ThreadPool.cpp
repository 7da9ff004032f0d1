//===- ThreadPool.cpp -----------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/ThreadPool.h"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

using namespace defacto;

unsigned defacto::availableCores() {
#if defined(__linux__)
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    if (int N = CPU_COUNT(&Set); N > 0)
      return static_cast<unsigned>(N);
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  NumThreads = std::max(1u, NumThreads);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  std::packaged_task<void()> Packaged(std::move(Task));
  std::future<void> Fut = Packaged.get_future();
  {
    std::lock_guard<std::mutex> Lock(M);
    Queue.emplace_back(
        [P = std::make_shared<std::packaged_task<void()>>(
             std::move(Packaged))]() mutable { (*P)(); });
  }
  WorkReady.notify_one();
  return Fut;
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(M);
  AllIdle.wait(Lock, [this] { return Queue.empty() && Active == 0; });
}

uint64_t ThreadPool::tasksRun() const {
  std::lock_guard<std::mutex> Lock(M);
  return Executed;
}

uint64_t ThreadPool::queueDepth() const {
  std::lock_guard<std::mutex> Lock(M);
  return Queue.size() + Active;
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(M);
  while (true) {
    WorkReady.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty()) // Stopping with a drained queue: shut down.
      return;
    std::function<void()> Task = std::move(Queue.front());
    Queue.pop_front();
    ++Active;
    Lock.unlock();
    Task();
    Lock.lock();
    --Active;
    ++Executed;
    if (Queue.empty() && Active == 0)
      AllIdle.notify_all();
  }
}
