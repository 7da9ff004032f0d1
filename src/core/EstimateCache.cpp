//===- EstimateCache.cpp --------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/EstimateCache.h"

#include "defacto/Support/Histogram.h"
#include "defacto/Support/Stats.h"

#include <algorithm>
#include <charconv>
#include <string>

using namespace defacto;

// Registry mirror of the cache counters (all EstimateCache instances
// combined); gated by the registry enable bit, one relaxed increment per
// event. The per-instance consistent snapshot is EstimateCache::stats().
DEFACTO_STATISTIC(NumLookups, "cache", "lookups",
                  "estimate-cache lookups (lookupOrBegin calls and "
                  "lookupCompleted hits)");
DEFACTO_STATISTIC(NumHits, "cache", "hits",
                  "lookups served from a completed entry");
DEFACTO_STATISTIC(NumNegativeHits, "cache", "negative_hits",
                  "lookups served a cached permanent failure");
DEFACTO_STATISTIC(NumMisses, "cache", "misses",
                  "lookups that took the computation ticket");
DEFACTO_STATISTIC(NumWaits, "cache", "waits",
                  "lookups that blocked on another thread's computation");
DEFACTO_STATISTIC(NumInserts, "cache", "inserts",
                  "entries completed by fulfill()");

namespace {

// The keys are built with appends rather than a std::ostringstream: a
// warm request builds several, and the stream's construction and
// locale machinery cost more than the formatting. Each helper prints
// what the stream printed, so keys (and journals) are unchanged.

/// A double as `OS << V` prints it by default: "%g", 6 significant
/// digits.
void appendDouble(std::string &Out, double V) {
  char Buf[32];
  auto [End, Err] = std::to_chars(Buf, Buf + sizeof(Buf), V,
                                  std::chars_format::general, 6);
  Out.append(Buf, End);
}

template <typename Int> void appendInt(std::string &Out, Int V) {
  Out += std::to_string(V);
}

} // namespace

std::string defacto::platformCacheKey(const TargetPlatform &Platform) {
  std::string Out = Platform.Name;
  for (unsigned V : {Platform.NumMemories, Platform.MemoryWidthBits,
                     Platform.Timing.ReadLatencyCycles,
                     Platform.Timing.WriteLatencyCycles}) {
    Out += ';';
    appendInt(Out, V);
  }
  Out += ';';
  Out += Platform.Timing.Pipelined ? '1' : '0';
  Out += ';';
  appendDouble(Out, Platform.ClockPeriodNs);
  Out += ';';
  appendDouble(Out, Platform.CapacitySlices);
  Out += ';';
  appendInt(Out, Platform.LoopOverheadCycles);
  Out += ';';
  appendInt(Out, static_cast<int>(Platform.Widths));
  Out += ';';
  Out += Platform.OperatorChaining ? '1' : '0';
  return Out;
}

std::string defacto::transformCacheKey(const TransformOptions &Opts) {
  std::string Out;
  if (Opts.StripMine) {
    Out += "sm";
    appendInt(Out, Opts.StripMine->first);
    Out += 'x';
    appendInt(Out, Opts.StripMine->second);
  }
  Out += ';';
  Out += Opts.EnableScalarReplacement ? '1' : '0';
  Out += Opts.EnablePeeling ? '1' : '0';
  Out += Opts.EnableDataLayout ? '1' : '0';
  Out += ';';
  appendInt(Out, Opts.SR.MaxChainLength);
  Out += ';';
  Out += Opts.SR.EnableOuterCarriedChains ? '1' : '0';
  Out += Opts.SR.EnableWindows ? '1' : '0';
  Out += ';';
  appendInt(Out, Opts.Layout.NumMemories);
  // The multi-dimensional extensions serialize to nothing when unset so
  // default-shape keys — and with them the journal replay of records
  // written before these dimensions existed — stay byte-identical.
  if (!Opts.Interchange.empty()) {
    Out += ";ic";
    for (size_t I = 0; I != Opts.Interchange.size(); ++I) {
      if (I)
        Out += '_';
      appendInt(Out, Opts.Interchange[I]);
    }
  }
  if (!Opts.Pipeline.empty())
    Out += ";pl" + Opts.Pipeline;
  return Out;
}

std::string defacto::designCacheKeyPrefix(
    uint64_t KernelFingerprint, const TargetPlatform &Platform,
    const TransformOptions &BaseTransforms,
    std::optional<unsigned> RegisterCap) {
  char Fp[17];
  auto [End, Err] = std::to_chars(Fp, Fp + sizeof(Fp), KernelFingerprint, 16);
  std::string Out(Fp, End);
  Out += '|';
  Out += platformCacheKey(Platform);
  Out += '|';
  Out += transformCacheKey(BaseTransforms);
  Out += '|';
  if (RegisterCap) {
    Out += "rc";
    appendInt(Out, *RegisterCap);
  }
  Out += '|';
  return Out;
}

std::string defacto::designCacheKey(uint64_t KernelFingerprint,
                                    const TargetPlatform &Platform,
                                    const TransformOptions &BaseTransforms,
                                    const UnrollVector &U,
                                    std::optional<unsigned> RegisterCap) {
  return designCacheKeyPrefix(KernelFingerprint, Platform, BaseTransforms,
                              RegisterCap) +
         unrollVectorToString(U);
}

EstimateCache::EstimateCache(unsigned NumShards) {
  NumShards = std::max(1u, NumShards);
  Shards.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

EstimateCache::Shard &EstimateCache::shardFor(const std::string &Key,
                                              unsigned &Index) const {
  Index = std::hash<std::string>{}(Key) % Shards.size();
  return *Shards[Index];
}

std::variant<EstimateCache::Result, EstimateCache::Ticket>
EstimateCache::lookupOrBegin(const std::string &Key, Outcome *Served) {
  ++NumLookups;
  unsigned Index = 0;
  Shard &S = shardFor(Key, Index);

  std::shared_future<Result> Pending;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    ++S.Counters.Lookups;
    auto It = S.Map.find(Key);
    if (It == S.Map.end()) {
      Ticket T;
      T.Shard = Index;
      T.Key = Key;
      T.Promise = std::make_shared<std::promise<Result>>();
      S.Map.emplace(Key,
                    Entry{T.Promise->get_future().share(), false});
      ++S.Counters.Misses;
      ++NumMisses;
      if (Served)
        *Served = Outcome::Miss;
      return T;
    }
    if (It->second.Completed) {
      Result R = It->second.Future.get(); // Ready: does not block.
      ++S.Counters.Hits;
      ++NumHits;
      if (!R.ok()) {
        ++S.Counters.NegativeHits;
        ++NumNegativeHits;
      }
      if (Served)
        *Served = R.ok() ? Outcome::Hit : Outcome::NegativeHit;
      return R;
    }
    ++S.Counters.Waits;
    ++NumWaits;
    Pending = It->second.Future;
  }
  // In flight elsewhere: block outside the shard lock.
  if (Served)
    *Served = Outcome::Wait;
  Result R = [&] {
    DEFACTO_SPAN("cache.wait");
    return Pending.get();
  }();
  if (!R.ok()) {
    std::lock_guard<std::mutex> Lock(S.M);
    ++S.Counters.NegativeHits;
    ++NumNegativeHits;
  }
  return R;
}

void EstimateCache::fulfill(Ticket T, Result R) {
  Shard &S = *Shards[T.Shard];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(T.Key);
    if (It != S.Map.end())
      It->second.Completed = true;
    ++S.Counters.Inserts;
    ++NumInserts;
  }
  std::shared_ptr<const Observer> Notify;
  {
    std::lock_guard<std::mutex> Lock(ObserverM);
    Notify = CompletionObserver;
  }
  if (Notify && *Notify)
    (*Notify)(T.Key, R);
  T.Promise->set_value(std::move(R));
}

bool EstimateCache::seed(const std::string &Key, Result R) {
  unsigned Index = 0;
  Shard &S = shardFor(Key, Index);
  std::lock_guard<std::mutex> Lock(S.M);
  if (S.Map.count(Key))
    return false;
  std::promise<Result> P;
  std::shared_future<Result> F = P.get_future().share();
  P.set_value(std::move(R));
  S.Map.emplace(Key, Entry{std::move(F), true});
  ++S.Counters.Inserts;
  ++NumInserts;
  return true;
}

void EstimateCache::setObserver(Observer O) {
  std::lock_guard<std::mutex> Lock(ObserverM);
  CompletionObserver =
      O ? std::make_shared<const Observer>(std::move(O)) : nullptr;
}

void EstimateCache::abandon(Ticket T, Status Transient) {
  Shard &S = *Shards[T.Shard];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.erase(T.Key);
  }
  // Waiters see the transient condition; nothing is cached against the
  // design, so the next lookupOrBegin() recomputes it.
  T.Promise->set_value(
      Result{Expected<SynthesisEstimate>(std::move(Transient)), 0});
}

EstimateCache::Result
EstimateCache::getOrCompute(const std::string &Key,
                            const std::function<Result()> &Compute) {
  auto Found = lookupOrBegin(Key);
  if (std::holds_alternative<Result>(Found))
    return std::get<Result>(Found);
  Result R = Compute();
  fulfill(std::get<Ticket>(std::move(Found)), R);
  return R;
}

std::optional<EstimateCache::Result>
EstimateCache::peek(const std::string &Key) const {
  unsigned Index = 0;
  const Shard &S = shardFor(Key, Index);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(Key);
  if (It == S.Map.end() || !It->second.Completed)
    return std::nullopt;
  return It->second.Future.get();
}

std::optional<EstimateCache::Result>
EstimateCache::lookupCompleted(const std::string &Key) {
  unsigned Index = 0;
  Shard &S = shardFor(Key, Index);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(Key);
  if (It == S.Map.end() || !It->second.Completed)
    return std::nullopt;
  Result R = It->second.Future.get(); // Ready: does not block.
  ++NumLookups;
  ++S.Counters.Lookups;
  ++S.Counters.Hits;
  ++NumHits;
  if (!R.ok()) {
    ++S.Counters.NegativeHits;
    ++NumNegativeHits;
  }
  return R;
}

size_t EstimateCache::size() const {
  size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->M);
    for (const auto &KV : S->Map)
      N += KV.second.Completed ? 1 : 0;
  }
  return N;
}

EstimateCache::Stats EstimateCache::stats() const {
  // Hold every shard lock at once: the summed counters form one globally
  // consistent snapshot (no lookup can be half-counted across it).
  std::vector<std::unique_lock<std::mutex>> Locks;
  Locks.reserve(Shards.size());
  for (const auto &S : Shards)
    Locks.emplace_back(S->M);
  Stats St;
  for (const auto &S : Shards) {
    St.Lookups += S->Counters.Lookups;
    St.Hits += S->Counters.Hits;
    St.NegativeHits += S->Counters.NegativeHits;
    St.Misses += S->Counters.Misses;
    St.Waits += S->Counters.Waits;
    St.Inserts += S->Counters.Inserts;
  }
  return St;
}
