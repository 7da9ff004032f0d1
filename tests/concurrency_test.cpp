//===- concurrency_test.cpp - ThreadPool and EstimateCache tests ----------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The concurrent-evaluation substrate under contention: the worker pool
/// (submission, futures, drain-on-shutdown) and the shared estimate
/// cache (exactly-once computation, in-flight waiter dedup, negative
/// entries, the abandon path). Every test is also a ThreadSanitizer
/// target through the tsan CMake preset.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/EstimateCache.h"
#include "defacto/Support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

using namespace defacto;

namespace {

SynthesisEstimate makeEstimate(uint64_t Cycles) {
  SynthesisEstimate E;
  E.Cycles = Cycles;
  E.Slices = static_cast<double>(Cycles) / 2;
  return E;
}

} // namespace

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::atomic<int> Count{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 100; ++I)
    Futures.push_back(Pool.submit([&Count] { ++Count; }));
  for (auto &F : Futures)
    F.wait();
  // A task is counted as run only after its future is fulfilled, so the
  // counter can trail the futures; wait() returns once every task has
  // been counted.
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
  EXPECT_GE(Pool.tasksRun(), 100u);
}

TEST(ThreadPool, AsyncReturnsValues) {
  ThreadPool Pool(2);
  std::future<int> A = Pool.async([] { return 21; });
  std::future<std::string> B =
      Pool.async([]() -> std::string { return "ok"; });
  EXPECT_EQ(A.get(), 21);
  EXPECT_EQ(B.get(), "ok");
}

TEST(ThreadPool, WaitBlocksUntilIdle) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int I = 0; I != 64; ++I)
    Pool.submit([&Count] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ++Count;
    });
  Pool.wait();
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPool, DestructionDrainsTheQueue) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I != 32; ++I)
      Pool.submit([&Count] { ++Count; });
    // Destructor must run every queued task before joining.
  }
  EXPECT_EQ(Count.load(), 32);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_EQ(Pool.async([] { return 7; }).get(), 7);
}

TEST(ThreadPool, AvailableCoresIsWithinTheMachine) {
  unsigned Cores = availableCores();
  EXPECT_GE(Cores, 1u);
  EXPECT_LE(Cores, std::max(1u, std::thread::hardware_concurrency()));
}

#if defined(__linux__)
TEST(ThreadPool, AvailableCoresFollowsTheAffinityMask) {
  // A thread pinned to one CPU sees one core: the count comes from the
  // affinity mask, not from the machine.
  bool Pinned = false;
  unsigned Seen = 0;
  std::thread([&Pinned, &Seen] {
    int Cpu = sched_getcpu();
    if (Cpu < 0)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
    Seen = availableCores();
  }).join();
  if (!Pinned)
    GTEST_SKIP() << "cannot change this thread's CPU affinity";
  EXPECT_EQ(Seen, 1u);
}
#endif

TEST(EstimateCache, FulfillThenHit) {
  EstimateCache Cache;
  auto First = Cache.lookupOrBegin("k");
  ASSERT_TRUE(std::holds_alternative<EstimateCache::Ticket>(First));
  Cache.fulfill(std::get<EstimateCache::Ticket>(std::move(First)),
                {makeEstimate(100), 2});

  auto Second = Cache.lookupOrBegin("k");
  ASSERT_TRUE(std::holds_alternative<EstimateCache::Result>(Second));
  const auto &R = std::get<EstimateCache::Result>(Second);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Estimate->Cycles, 100u);
  EXPECT_EQ(R.Attempts, 2u);

  EstimateCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(EstimateCache, NegativeEntriesAreRemembered) {
  EstimateCache Cache;
  auto T = Cache.lookupOrBegin("bad");
  Cache.fulfill(std::get<EstimateCache::Ticket>(std::move(T)),
                {Expected<SynthesisEstimate>(Status::error(
                     ErrorCode::EstimationFailed, "backend crash")),
                 3});

  auto Again = Cache.lookupOrBegin("bad");
  ASSERT_TRUE(std::holds_alternative<EstimateCache::Result>(Again));
  const auto &R = std::get<EstimateCache::Result>(Again);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_EQ(R.Estimate.status().code(), ErrorCode::EstimationFailed);
  EXPECT_EQ(Cache.stats().NegativeHits, 1u);
}

TEST(EstimateCache, AbandonForgetsTheKeyAndSignalsTransient) {
  EstimateCache Cache;
  auto T = Cache.lookupOrBegin("k");
  ASSERT_TRUE(std::holds_alternative<EstimateCache::Ticket>(T));

  // A waiter arrives while the computation is in flight.
  std::thread Waiter([&Cache] {
    auto W = Cache.lookupOrBegin("k");
    ASSERT_TRUE(std::holds_alternative<EstimateCache::Result>(W));
    const auto &R = std::get<EstimateCache::Result>(W);
    EXPECT_EQ(R.Attempts, 0u); // transient sentinel: recompute
    EXPECT_EQ(R.Estimate.status().code(), ErrorCode::DeadlineExceeded);
  });

  // Abandon only once the waiter is provably blocked on the in-flight
  // entry (the Waits counter ticks before it parks on the future), so
  // it cannot instead race ahead and draw a fresh ticket.
  while (Cache.stats().Waits == 0)
    std::this_thread::yield();
  Cache.abandon(std::get<EstimateCache::Ticket>(std::move(T)),
                Status::error(ErrorCode::DeadlineExceeded, "deadline"));
  Waiter.join();

  // The key was erased: the next caller gets a fresh ticket.
  auto Retry = Cache.lookupOrBegin("k");
  EXPECT_TRUE(std::holds_alternative<EstimateCache::Ticket>(Retry));
  Cache.fulfill(std::get<EstimateCache::Ticket>(std::move(Retry)),
                {makeEstimate(5), 1});
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(EstimateCache, EachKeyComputedExactlyOnceUnderContention) {
  EstimateCache Cache(4); // few shards: force shard contention
  constexpr int NumThreads = 8;
  constexpr int NumKeys = 25;
  std::atomic<int> Computations{0};

  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Cache, &Computations, T] {
      // Each thread walks the keys starting at a different offset, so
      // racing threads collide on different keys at the same time.
      for (int I = 0; I != NumKeys; ++I) {
        int KeyIdx = (I + T * 3) % NumKeys;
        std::string Key = "design-" + std::to_string(KeyIdx);
        EstimateCache::Result R = Cache.getOrCompute(Key, [&] {
          ++Computations;
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          return EstimateCache::Result{
              makeEstimate(static_cast<uint64_t>(KeyIdx) + 1), 1};
        });
        ASSERT_TRUE(R.ok());
        ASSERT_EQ(R.Estimate->Cycles,
                  static_cast<uint64_t>(KeyIdx) + 1);
      }
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Computations.load(), NumKeys);
  EXPECT_EQ(Cache.size(), static_cast<size_t>(NumKeys));
  EstimateCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Lookups,
            static_cast<uint64_t>(NumThreads) * NumKeys);
  EXPECT_EQ(S.Misses, static_cast<uint64_t>(NumKeys));
  EXPECT_EQ(S.Hits + S.Waits + S.Misses, S.Lookups);
  EXPECT_GT(S.hitRate(), 0.5);
}

TEST(EstimateCache, MixedPositiveAndNegativeHammer) {
  EstimateCache Cache;
  constexpr int NumThreads = 8;
  constexpr int NumKeys = 16;

  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Cache] {
      for (int Round = 0; Round != 50; ++Round)
        for (int I = 0; I != NumKeys; ++I) {
          std::string Key = "k" + std::to_string(I);
          EstimateCache::Result R = Cache.getOrCompute(Key, [I] {
            if (I % 3 == 0)
              return EstimateCache::Result{
                  Expected<SynthesisEstimate>(Status::error(
                      ErrorCode::EstimationFailed, "synthetic")),
                  2};
            return EstimateCache::Result{
                makeEstimate(static_cast<uint64_t>(I)), 1};
          });
          if (I % 3 == 0) {
            ASSERT_FALSE(R.ok());
            ASSERT_EQ(R.Attempts, 2u);
          } else {
            ASSERT_TRUE(R.ok());
            ASSERT_EQ(R.Estimate->Cycles, static_cast<uint64_t>(I));
          }
        }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Cache.size(), static_cast<size_t>(NumKeys));
}

TEST(EstimateCache, PeekNeverBlocksOrCreates) {
  EstimateCache Cache;
  EXPECT_FALSE(Cache.peek("missing").has_value());

  auto T = Cache.lookupOrBegin("inflight");
  ASSERT_TRUE(std::holds_alternative<EstimateCache::Ticket>(T));
  EXPECT_FALSE(Cache.peek("inflight").has_value()); // not completed yet
  Cache.fulfill(std::get<EstimateCache::Ticket>(std::move(T)),
                {makeEstimate(9), 1});
  auto Peeked = Cache.peek("inflight");
  ASSERT_TRUE(Peeked.has_value());
  EXPECT_EQ(Peeked->Estimate->Cycles, 9u);
}
