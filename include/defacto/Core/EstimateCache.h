//===- EstimateCache.h - Shared memoized synthesis estimates ---*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, shardable cache of SynthesisEstimate results keyed by
/// (kernel fingerprint, unroll vector, target platform, transformation
/// options). Estimation is the DSE hot path — the paper's whole point is
/// spending as few synthesis estimates as possible — so the exploration
/// engine treats it as a memoized service: every explorer run, the
/// exhaustive/random baselines, and the multi-kernel BatchExplorer all
/// draw from one cache, and a design estimated once is never estimated
/// again, across runs, platforms-permitting, and threads.
///
/// Negative entries record designs whose estimation permanently failed
/// (every retry exhausted), unifying the explorer's former per-run
/// negative cache: a design known to crash the backend is not retried by
/// the next exploration either.
///
/// Concurrency: lookupOrBegin() either returns a completed Result or
/// hands the caller a Ticket obligating it to compute and fulfill() (or
/// abandon()) the entry. Concurrent requests for an in-flight key block
/// on a shared future, so a design is computed exactly once no matter how
/// many workers race for it.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_ESTIMATECACHE_H
#define DEFACTO_CORE_ESTIMATECACHE_H

#include "defacto/HLS/Estimator.h"
#include "defacto/Transforms/Pipeline.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

namespace defacto {

/// Cache key for one candidate design. Built once per explorer (prefix)
/// and extended per unroll vector; see designCacheKey().
std::string platformCacheKey(const TargetPlatform &Platform);
std::string transformCacheKey(const TransformOptions &Opts);
/// designCacheKey() up to, not including, the unroll vector.
std::string designCacheKeyPrefix(uint64_t KernelFingerprint,
                                 const TargetPlatform &Platform,
                                 const TransformOptions &BaseTransforms,
                                 std::optional<unsigned> RegisterCap = {});
std::string designCacheKey(uint64_t KernelFingerprint,
                           const TargetPlatform &Platform,
                           const TransformOptions &BaseTransforms,
                           const UnrollVector &U,
                           std::optional<unsigned> RegisterCap = {});

/// Shared memoization of synthesis estimates.
class EstimateCache {
public:
  /// One completed estimation: the estimate or the permanent failure,
  /// plus the estimator attempts it cost (so a consumer replaying a
  /// cached walk can charge its evaluation budget identically).
  struct Result {
    Expected<SynthesisEstimate> Estimate;
    unsigned Attempts = 1;

    bool ok() const { return Estimate.hasValue(); }
  };

  /// Obligation to fulfill one in-flight entry; obtained from
  /// lookupOrBegin(), consumed by fulfill()/abandon().
  struct Ticket {
    unsigned Shard = 0;
    std::string Key;
    std::shared_ptr<std::promise<Result>> Promise;
  };

  /// How one lookupOrBegin() call was served; reported through the
  /// optional out-parameter and counted in Stats.
  enum class Outcome {
    Hit,         ///< Completed entry found.
    NegativeHit, ///< Completed entry found, holding a permanent failure.
    Miss,        ///< No entry: the caller received a Ticket.
    Wait,        ///< Entry in flight elsewhere: the caller blocked for it.
  };

  /// One consistent snapshot of the cache's counters. stats() gathers it
  /// under every shard lock at once, so the invariant Lookups == Hits +
  /// Misses + Waits holds exactly in any snapshot — counters cannot tear
  /// against concurrent updates. The same totals are mirrored into the
  /// StatRegistry (group "cache"; relaxed counters, recording-gated) for
  /// process-wide dumps.
  struct Stats {
    uint64_t Lookups = 0;
    /// Completed entry found (NegativeHits counts the error subset).
    uint64_t Hits = 0;
    uint64_t NegativeHits = 0;
    /// No entry: the caller received a Ticket.
    uint64_t Misses = 0;
    /// Entry in flight on another thread: the caller blocked for it.
    uint64_t Waits = 0;
    uint64_t Inserts = 0;

    double hitRate() const {
      uint64_t Total = Hits + Waits + Misses;
      return Total == 0 ? 0.0
                        : static_cast<double>(Hits + Waits) /
                              static_cast<double>(Total);
    }
  };

  explicit EstimateCache(unsigned NumShards = 16);

  EstimateCache(const EstimateCache &) = delete;
  EstimateCache &operator=(const EstimateCache &) = delete;

  /// A completed Result (blocking on an in-flight computation if one is
  /// running), or a Ticket making this caller the computer for \p Key.
  /// \p Served, when non-null, receives how the call was resolved (the
  /// exploration trace records it per decision).
  std::variant<Result, Ticket> lookupOrBegin(const std::string &Key,
                                             Outcome *Served = nullptr);

  /// Completes \p T: caches \p R and wakes every waiter.
  void fulfill(Ticket T, Result R);

  /// Gives up on \p T without caching: waiters receive \p Transient (a
  /// global condition such as a deadline, never the design's fault) and
  /// the key is forgotten so a later lookup recomputes it.
  void abandon(Ticket T, Status Transient);

  /// Pre-warms the cache with a completed \p R for \p Key — the
  /// evaluation-journal replay path. First write wins; an existing
  /// completed or in-flight entry is left alone. Returns true when the
  /// entry was inserted. Does not fire the observer (replayed results
  /// are already durable).
  bool seed(const std::string &Key, Result R);

  /// Completion hook: called once per fulfill(), outside any shard lock,
  /// with the key and the completed result. BatchExplorer points it at
  /// the evaluation journal so every finished estimation is durable the
  /// moment it lands in the cache. One observer at a time; pass an empty
  /// function to detach. The callback must be thread-safe.
  using Observer = std::function<void(const std::string &Key,
                                      const Result &R)>;
  void setObserver(Observer O);

  /// Convenience wrapper: memoized \p Compute.
  Result getOrCompute(const std::string &Key,
                      const std::function<Result()> &Compute);

  /// Non-blocking probe for a completed entry; does not touch stats.
  std::optional<Result> peek(const std::string &Key) const;

  /// peek() that counts a completed entry as a hit, exactly as
  /// lookupOrBegin() would (Lookups, Hits, NegativeHits and the cache.*
  /// counters); an absent or in-flight entry returns std::nullopt and
  /// counts nothing. No ticket, no wait: the daemon's cache-only replay
  /// of warm requests (ExplorerOptions::CacheOnly) looks designs up
  /// through it.
  std::optional<Result> lookupCompleted(const std::string &Key);

  /// Completed entries currently cached.
  size_t size() const;

  Stats stats() const;

private:
  struct Entry {
    std::shared_future<Result> Future;
    bool Completed = false; // set by fulfill(); guarded by the shard lock
  };
  /// Counters live per shard, guarded by the shard lock, and a lookup's
  /// Lookups increment lands in the same critical section as its outcome
  /// counter — that is what makes the all-shards snapshot in stats()
  /// exactly consistent instead of a torn sum of racing atomics.
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<std::string, Entry> Map;
    Stats Counters;
  };

  Shard &shardFor(const std::string &Key, unsigned &Index) const;

  std::vector<std::unique_ptr<Shard>> Shards;
  /// Swapped atomically under ObserverM; fulfill() loads a shared_ptr
  /// copy so a concurrent setObserver cannot free it mid-call.
  mutable std::mutex ObserverM;
  std::shared_ptr<const Observer> CompletionObserver;
};

} // namespace defacto

#endif // DEFACTO_CORE_ESTIMATECACHE_H
