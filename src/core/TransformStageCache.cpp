//===- TransformStageCache.cpp --------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/TransformStageCache.h"

#include "defacto/Core/EstimateCache.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Support/Arena.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Stats.h"
#include "defacto/Transforms/Normalize.h"
#include "defacto/Transforms/Tiling.h"

#include <algorithm>
#include <sstream>

using namespace defacto;

// Registry mirror of the stage-cache counters, distinguishing pipeline-
// prefix reuse from the estimate cache's whole-design hits ("cache"
// group alongside lookups/hits/misses).
DEFACTO_STATISTIC(NumStageHits, "cache", "stage_hits",
                  "transform-stage lookups served a memoized prefix");
DEFACTO_STATISTIC(NumStageMisses, "cache", "stage_misses",
                  "transform-stage lookups that built the prefix");
DEFACTO_STATISTIC(NumStageWaits, "cache", "stage_waits",
                  "transform-stage lookups that blocked on another builder");
DEFACTO_STATISTIC(NumStageEvictions, "cache", "stage_evictions",
                  "memoized prefixes dropped by the per-shard FIFO bound");
DEFACTO_STATISTIC(NumFinalHits, "cache", "final_hits",
                  "candidate lookups served a memoized finished kernel");
DEFACTO_STATISTIC(NumFinalMisses, "cache", "final_misses",
                  "candidate lookups that ran the post-stage passes");

std::string defacto::stageCacheKey(
    uint64_t KernelFingerprint,
    const std::optional<std::pair<unsigned, int64_t>> &StripMine,
    const UnrollVector &Prefix) {
  std::ostringstream OS;
  OS << std::hex << KernelFingerprint << std::dec << '|';
  if (StripMine)
    OS << "sm" << StripMine->first << 'x' << StripMine->second;
  OS << '|' << unrollVectorToString(Prefix);
  return OS.str();
}

TransformStageCache::TransformStageCache(unsigned NumShards,
                                         size_t MaxEntriesPerShard)
    : MaxEntriesPerShard(std::max<size_t>(1, MaxEntriesPerShard)) {
  NumShards = std::max(1u, NumShards);
  Shards.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

TransformStageCache::Shard &
TransformStageCache::shardFor(const std::string &Key, unsigned &Index) const {
  Index = std::hash<std::string>{}(Key) % Shards.size();
  return *Shards[Index];
}

std::variant<TransformStageCache::EntryPtr, TransformStageCache::Ticket>
TransformStageCache::lookupOrBegin(const std::string &Key, Outcome *Served,
                                   bool Final) {
  unsigned Index = 0;
  Shard &S = shardFor(Key, Index);

  std::shared_future<EntryPtr> Pending;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    ++S.Counters.Lookups;
    auto It = S.Map.find(Key);
    if (It == S.Map.end()) {
      Ticket T;
      T.Shard = Index;
      T.Key = Key;
      T.Promise = std::make_shared<std::promise<EntryPtr>>();
      S.Map.emplace(Key, Slot{T.Promise->get_future().share(), false});
      ++S.Counters.Misses;
      ++(Final ? NumFinalMisses : NumStageMisses);
      if (Served)
        *Served = Outcome::Miss;
      return T;
    }
    if (It->second.Completed) {
      EntryPtr E = It->second.Future.get(); // Ready: does not block.
      ++S.Counters.Hits;
      ++(Final ? NumFinalHits : NumStageHits);
      if (Served)
        *Served = Outcome::Hit;
      return E;
    }
    ++S.Counters.Waits;
    ++NumStageWaits;
    Pending = It->second.Future;
  }
  // In flight elsewhere: block outside the shard lock.
  if (Served)
    *Served = Outcome::Wait;
  DEFACTO_SPAN("cache.stage_wait");
  return Pending.get();
}

void TransformStageCache::fulfill(Ticket T, EntryPtr E) {
  Shard &S = *Shards[T.Shard];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(T.Key);
    if (It != S.Map.end()) {
      It->second.Completed = true;
      S.InsertOrder.push_back(T.Key);
      ++S.Counters.Inserts;
      while (S.InsertOrder.size() > MaxEntriesPerShard) {
        S.Map.erase(S.InsertOrder.front());
        S.InsertOrder.pop_front();
        ++S.Counters.Evictions;
        ++NumStageEvictions;
      }
    }
  }
  T.Promise->set_value(std::move(E));
}

void TransformStageCache::abandon(Ticket T) {
  Shard &S = *Shards[T.Shard];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.erase(T.Key);
  }
  T.Promise->set_value(nullptr);
}

size_t TransformStageCache::size() const {
  size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    for (const auto &KV : S->Map)
      N += KV.second.Completed ? 1 : 0;
  }
  return N;
}

TransformStageCache::Stats TransformStageCache::stats() const {
  std::vector<std::unique_lock<std::mutex>> Locks;
  Locks.reserve(Shards.size());
  for (const auto &S : Shards)
    Locks.emplace_back(S->M);
  Stats St;
  for (const auto &S : Shards) {
    St.Lookups += S->Counters.Lookups;
    St.Hits += S->Counters.Hits;
    St.Misses += S->Counters.Misses;
    St.Waits += S->Counters.Waits;
    St.Inserts += S->Counters.Inserts;
    St.Evictions += S->Counters.Evictions;
  }
  return St;
}

//===----------------------------------------------------------------------===//
// StagedPipeline
//===----------------------------------------------------------------------===//

StagedPipeline::StagedPipeline(const PipelineContext &Ctx,
                               std::shared_ptr<TransformStageCache> Cache)
    : Ctx(Ctx), Cache(std::move(Cache)), SourceFp(Ctx.fingerprint()) {}

TransformStageCache::EntryPtr
StagedPipeline::buildStage(const TransformOptions &Opts,
                             const UnrollVector &Prefix) const {
  DEFACTO_SPAN("pipeline.stage");
  // The snapshot is shared read-only across worker threads and must
  // survive every worker's arena resets: build it on the heap.
  IRArenaScope Suspend(nullptr);

  Kernel K = Ctx.normalized().clone();
  if (Opts.StripMine) {
    if (ForStmt *Top = K.topLoop()) {
      std::vector<ForStmt *> Nest = perfectNest(Top);
      unsigned Pos = Opts.StripMine->first;
      if (Pos < Nest.size())
        stripMine(K, Nest[Pos]->loopId(), Opts.StripMine->second);
    }
  }

  std::vector<int64_t> Trips;
  if (ForStmt *Top = K.topLoop())
    for (ForStmt *F : perfectNest(Top))
      Trips.push_back(F->tripCount());

  bool PrefixApplied = unrollAndJam(K, Prefix);
  normalizeLoops(K);

  bool HasLoopIndexUses = false;
  walkExprsInStmts(K.body(), [&HasLoopIndexUses](Expr *E) {
    HasLoopIndexUses |= isa<LoopIndexExpr>(E);
  });

  // Verify once here; every candidate cloned from this stage skips its
  // own verification pass. The post-stage transforms preserve
  // well-formedness by construction (fastpath_parity_test compares the
  // staged IR with applyPipeline's; tests/golden/paper_answers.golden
  // pins the estimates).
  bool StageVerified = verifyKernel(K).empty();

  auto E = std::make_shared<TransformStageCache::Entry>(std::move(K));
  E->Trips = std::move(Trips);
  E->PrefixApplied = PrefixApplied;
  E->HasLoopIndexUses = HasLoopIndexUses;
  E->StageVerified = StageVerified;
  return E;
}

TransformResult StagedPipeline::run(const TransformOptions &Opts,
                                    bool SkipVerify,
                                    StageRunInfo *Info) const {
  // The stage factorization below (strip-mine/unroll/normalize prefix +
  // finishPipeline suffix) is only valid for the default pipeline shape;
  // custom pass pipelines and interchange run the full pipeline.
  if (!Opts.Pipeline.empty() || !Opts.Interchange.empty())
    return applyPipeline(Ctx, Opts);

  const UnrollVector &U = Opts.Unroll;

  // Split U = Prefix (+) W: W carries only the outermost factor > 1.
  // Keying the stage on Prefix means W-only neighbors — the guided
  // Increase chain and exhaustive sweeps over the outer factor — share
  // one memoized unroll-and-jam.
  size_t Outer = U.size();
  for (size_t P = 0; P != U.size(); ++P)
    if (U[P] > 1) {
      Outer = P;
      break;
    }
  UnrollVector Prefix = U;
  if (Outer != U.size())
    Prefix[Outer] = 1;

  std::string Key = stageCacheKey(SourceFp, Opts.StripMine, Prefix);
  if (Info)
    Info->Key = Key;

  TransformStageCache::Outcome Served = TransformStageCache::Outcome::Miss;
  auto Found = Cache->lookupOrBegin(Key, &Served);
  TransformStageCache::EntryPtr E;
  if (std::holds_alternative<TransformStageCache::Ticket>(Found)) {
    E = buildStage(Opts, Prefix);
    Cache->fulfill(std::get<TransformStageCache::Ticket>(std::move(Found)),
                   E);
  } else {
    E = std::get<TransformStageCache::EntryPtr>(std::move(Found));
  }
  if (Info)
    Info->Outcome = Served;

  // Staging is used only when the full vector provably takes the same
  // route as the joint path: a perfect nest exists, the prefix applied,
  // every factor divides its (post-strip-mine) trip count, and strip-
  // mined renormalization cannot reshape loop-index expression trees.
  bool Eligible = E != nullptr && !E->Trips.empty() && E->PrefixApplied &&
                  E->StageVerified && U.size() <= E->Trips.size() &&
                  !(Opts.StripMine && E->HasLoopIndexUses);
  if (Eligible)
    for (size_t P = 0; P != U.size(); ++P)
      if (U[P] < 1 || E->Trips[P] % U[P] != 0) {
        Eligible = false;
        break;
      }
  if (!Eligible) {
    if (Info)
      Info->Staged = false;
    return applyPipeline(Ctx, Opts);
  }
  if (Info)
    Info->Staged = true;

  // Second level: the finished candidate itself. Distinct candidates in
  // one sweep never collide here, but repeated sweeps — batch jobs over
  // multiple platforms, --repeat runs, portfolio strategies revisiting a
  // kernel — re-derive identical candidates, and a hit replaces every
  // post-stage pass with one arena clone of the memoized kernel.
  std::string FinalKey = Key + '|' + transformCacheKey(Opts) + '|' +
                         unrollVectorToString(U) + "|final";
  std::optional<TransformStageCache::Ticket> FinalTicket;
  {
    TransformStageCache::Outcome FinalServed = TransformStageCache::Outcome::Miss;
    auto FinalFound = Cache->lookupOrBegin(FinalKey, &FinalServed,
                                           /*Final=*/true);
    if (std::holds_alternative<TransformStageCache::Ticket>(FinalFound)) {
      FinalTicket =
          std::get<TransformStageCache::Ticket>(std::move(FinalFound));
    } else if (TransformStageCache::EntryPtr FE =
                   std::get<TransformStageCache::EntryPtr>(
                       std::move(FinalFound))) {
      if (Info)
        Info->FinalHit = true;
      DEFACTO_SPAN("pipeline.clone");
      return TransformResult(FE->Staged.clone());
    }
    // A null entry means the in-flight builder abandoned; build locally
    // without publishing.
  }

  TransformResult Result = [&] {
    DEFACTO_SPAN("pipeline.run");
    std::optional<Kernel> K;
    {
      DEFACTO_SPAN("pipeline.clone");
      K.emplace(E->Staged.clone());
    }
    UnrollVector W(U.size(), 1);
    if (Outer != U.size())
      W[Outer] = U[Outer];
    bool UnrollApplied;
    {
      DEFACTO_SPAN("pipeline.pass.unroll");
      UnrollApplied = unrollAndJam(*K, W);
    }
    {
      // The stage snapshot is already normalized, so this pass only
      // rewrites the one loop W touched.
      DEFACTO_SPAN("pipeline.pass.normalize");
      normalizeLoops(*K);
    }
    return finishPipeline(std::move(*K), Opts, Ctx.normalized(),
                          UnrollApplied, SkipVerify);
  }();

  if (FinalTicket) {
    if (Result.ok()) {
      // The published copy must survive worker arena resets: clone it
      // onto the heap with the arena suspended.
      IRArenaScope Suspend(nullptr);
      auto FE =
          std::make_shared<TransformStageCache::Entry>(Result.K.clone());
      FE->StageVerified = true;
      Cache->fulfill(std::move(*FinalTicket), std::move(FE));
    } else {
      Cache->abandon(std::move(*FinalTicket));
    }
  }
  return Result;
}
