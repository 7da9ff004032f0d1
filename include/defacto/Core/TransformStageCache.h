//===- TransformStageCache.h - Memoized pipeline prefixes ------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization of the transform pipeline's *prefix* — strip-mine +
/// unroll-and-jam + renormalization — across candidate designs. The key
/// observation: write a candidate's unroll vector U as U = P (+) W where
/// W carries only U's outermost factor > 1 and P ("the prefix") carries
/// the rest. Then
///
///   stripmine ; unroll(U) ; normalize
///     ==  [stripmine ; unroll(P) ; normalize]  ; unroll(W) ; normalize
///
/// bit-for-bit (outer-major copy order and canonical affine substitution
/// make the two factorizations commute; fastpath_parity_test proves the
/// printed IR identical). The bracketed part depends only on (kernel
/// fingerprint, strip-mine, P), so the guided walk's Increase chain and
/// exhaustive sweeps that revisit a shared prefix clone the memoized
/// stage instead of re-running unroll-and-jam from the base kernel.
///
/// TransformStageCache stores those snapshots behind the same
/// ticket-style in-flight dedup as EstimateCache: a stage is built
/// exactly once no matter how many workers race for it. StagedPipeline
/// is the consumer: applyPipeline(), staged — identical results, with
/// per-candidate fallbacks to the unstaged path whenever staging cannot
/// be proven equivalent (no perfect nest, unroll vector not applicable,
/// loop-index uses interacting with strip-mine renormalization).
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_TRANSFORMSTAGECACHE_H
#define DEFACTO_CORE_TRANSFORMSTAGECACHE_H

#include "defacto/Transforms/Pipeline.h"

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

namespace defacto {

/// Cache key of one memoized stage: kernel fingerprint, strip-mine
/// request, and the unroll-vector prefix the stage has applied.
std::string stageCacheKey(
    uint64_t KernelFingerprint,
    const std::optional<std::pair<unsigned, int64_t>> &StripMine,
    const UnrollVector &Prefix);

/// Thread-safe, sharded store of pipeline-prefix snapshots.
class TransformStageCache {
public:
  /// One memoized stage. Immutable once published; shared read-only
  /// across worker threads (clones are taken from Staged concurrently,
  /// exactly like PipelineContext::normalized()).
  struct Entry {
    /// The snapshot: strip-mined, prefix-unrolled, normalized. Always
    /// heap-allocated (built with the arena suspended) so it outlives
    /// any worker's arena resets.
    Kernel Staged;
    /// Trip counts of the perfect nest after strip-mining but before
    /// unrolling — what canUnroll() consults — so full-vector
    /// applicability is checked without reconstructing that kernel.
    /// Empty when the kernel has no perfect nest.
    std::vector<int64_t> Trips;
    /// unrollAndJam(Prefix) returned true while building this stage.
    bool PrefixApplied = false;
    /// The body uses loop indices outside array subscripts (guards,
    /// select conditions). Combined with strip-mining, staged
    /// renormalization can then produce a differently-shaped (equal
    /// valued) expression tree, so such candidates stay unstaged.
    bool HasLoopIndexUses = false;
    /// The snapshot passed IR verification when it was built. Staged
    /// candidates inherit this one check instead of re-verifying per
    /// candidate; a malformed stage forces the unstaged route, whose
    /// full pipeline reports the error exactly as applyPipeline() does.
    bool StageVerified = false;

    explicit Entry(Kernel K) : Staged(std::move(K)) {}
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Obligation to build one in-flight stage; obtained from
  /// lookupOrBegin(), consumed by fulfill()/abandon().
  struct Ticket {
    unsigned Shard = 0;
    std::string Key;
    std::shared_ptr<std::promise<EntryPtr>> Promise;
  };

  enum class Outcome {
    Hit,  ///< Completed stage found.
    Miss, ///< No entry: the caller received a Ticket.
    Wait, ///< In flight elsewhere: the caller blocked for it.
  };

  /// Consistent all-shard snapshot (same discipline as
  /// EstimateCache::Stats: a lookup's counters land under one shard
  /// lock, so Lookups == Hits + Misses + Waits exactly). Mirrored into
  /// the StatRegistry as cache.stage_hits / stage_misses /
  /// stage_evictions.
  struct Stats {
    uint64_t Lookups = 0;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Waits = 0;
    uint64_t Inserts = 0;
    uint64_t Evictions = 0;

    double hitRate() const {
      uint64_t Total = Hits + Waits + Misses;
      return Total == 0 ? 0.0
                        : static_cast<double>(Hits + Waits) /
                              static_cast<double>(Total);
    }
  };

  /// \p MaxEntriesPerShard bounds resident snapshots; the oldest
  /// completed stage is evicted first (stages are cheap to rebuild, so
  /// a simple FIFO bound beats tracking recency on the hot path).
  explicit TransformStageCache(unsigned NumShards = 8,
                               size_t MaxEntriesPerShard = 64);

  TransformStageCache(const TransformStageCache &) = delete;
  TransformStageCache &operator=(const TransformStageCache &) = delete;

  /// A completed stage (blocking on an in-flight build if one is
  /// running), or a Ticket making this caller the builder for \p Key.
  /// A returned EntryPtr can be null if the builder abandoned; callers
  /// fall back to the unstaged pipeline. \p Final selects the registry
  /// counter family (stage prefixes vs finished candidates); both entry
  /// kinds share the shard store and its FIFO bound.
  std::variant<EntryPtr, Ticket> lookupOrBegin(const std::string &Key,
                                               Outcome *Served = nullptr,
                                               bool Final = false);

  /// Publishes \p E under \p T's key and wakes every waiter.
  void fulfill(Ticket T, EntryPtr E);

  /// Gives up on \p T: waiters receive a null entry and the key is
  /// forgotten so a later lookup rebuilds it.
  void abandon(Ticket T);

  /// Completed stages currently resident.
  size_t size() const;

  Stats stats() const;

private:
  struct Slot {
    std::shared_future<EntryPtr> Future;
    bool Completed = false; // guarded by the shard lock
  };
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<std::string, Slot> Map;
    std::deque<std::string> InsertOrder; // completed keys, oldest first
    Stats Counters;
  };

  Shard &shardFor(const std::string &Key, unsigned &Index) const;

  std::vector<std::unique_ptr<Shard>> Shards;
  size_t MaxEntriesPerShard;
};

/// How one StagedPipeline::run() resolved, for trace emission
/// (dse.stagecache events) by the evaluation service.
struct StageRunInfo {
  /// The candidate actually took the staged route (false: per-candidate
  /// fallback to the unstaged pipeline).
  bool Staged = false;
  /// Stage lookup outcome; meaningful whenever the cache was consulted.
  TransformStageCache::Outcome Outcome = TransformStageCache::Outcome::Miss;
  /// The finished candidate itself was served from the cache's second
  /// level, skipping every post-stage transform pass.
  bool FinalHit = false;
  /// Stage key, for trace correlation.
  std::string Key;
};

/// applyPipeline() over a shared context with stage memoization:
/// bit-identical TransformResults, one unroll-and-jam per distinct
/// (strip-mine, prefix) instead of one per candidate.
class StagedPipeline {
public:
  /// \p Ctx and \p Cache must outlive the pipeline. One instance is
  /// shared across worker threads (it holds no per-run mutable state).
  StagedPipeline(const PipelineContext &Ctx,
                 std::shared_ptr<TransformStageCache> Cache);

  /// Runs the full pipeline for \p Opts. SkipVerify drops the final
  /// IR-verification pass of staged candidates, whose stage snapshot was
  /// verified when built (unstaged fallbacks always verify). Info, when
  /// non-null, reports how the stage cache resolved.
  TransformResult run(const TransformOptions &Opts, bool SkipVerify = false,
                      StageRunInfo *Info = nullptr) const;

  const PipelineContext &context() const { return Ctx; }
  const std::shared_ptr<TransformStageCache> &cache() const { return Cache; }

private:
  TransformStageCache::EntryPtr buildStage(const TransformOptions &Opts,
                                           const UnrollVector &Prefix) const;

  const PipelineContext &Ctx;
  std::shared_ptr<TransformStageCache> Cache;
  uint64_t SourceFp = 0;
};

} // namespace defacto

#endif // DEFACTO_CORE_TRANSFORMSTAGECACHE_H
