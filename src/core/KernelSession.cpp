//===- KernelSession.cpp --------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/KernelSession.h"

#include "defacto/Analysis/DependenceAnalysis.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Support/Stats.h"
#include "defacto/Transforms/Interchange.h"

#include <algorithm>

using namespace defacto;

DEFACTO_STATISTIC(NumSessionHits, "cache", "session_hits",
                  "kernel-session lookups served a stored session");
DEFACTO_STATISTIC(NumSessionMisses, "cache", "session_misses",
                  "kernel-session lookups that built a new session");
DEFACTO_STATISTIC(NumSessionEvictions, "cache", "session_evictions",
                  "stored kernel sessions dropped by the LRU bounds");

KernelSession::KernelSession(Kernel K)
    : Source(std::move(K)), SourceFp(kernelFingerprint(Source)), Ctx(Source),
      Sat(computeSaturation(Ctx, /*NumMemories=*/1)),
      DSpace(UnrollSpace(Sat.Trips.empty() ? std::vector<int64_t>{1}
                                           : Sat.Trips)) {
  // The unroll preference order (§5.3): loops carrying no dependence
  // first (their unrolled iterations are fully parallel), then loops by
  // decreasing minimum carried distance; within a class, loops that add
  // memory parallelism come first.
  const DependenceInfo &DI = *Ctx.analyses().cachedDependence();
  unsigned N = Sat.Trips.size();
  struct Rank {
    unsigned Pos;
    bool DepFree;
    bool MemVarying;
    int64_t MinDist;
  };
  std::vector<Rank> Ranks;
  for (unsigned P = 0; P != N; ++P) {
    Rank R;
    R.Pos = P;
    R.DepFree = DI.carriesNoDependence(P);
    R.MemVarying = P < Sat.MemoryVarying.size() && Sat.MemoryVarying[P];
    R.MinDist = DI.minCarriedDistance(P).value_or(0);
    Ranks.push_back(R);
  }
  std::stable_sort(Ranks.begin(), Ranks.end(), [](const Rank &A,
                                                  const Rank &B) {
    if (A.DepFree != B.DepFree)
      return A.DepFree;
    if (A.MemVarying != B.MemVarying)
      return A.MemVarying;
    return A.MinDist > B.MinDist;
  });
  for (const Rank &R : Ranks)
    Preference.push_back(R.Pos);

  // Pairwise legality from the same cached analysis: no per-pair
  // re-analysis of the kernel.
  Depth = DI.nest().size();
  Legal.assign(Depth * Depth, false);
  for (unsigned A = 0; A != Depth; ++A)
    for (unsigned B = 0; B != Depth; ++B)
      Legal[A * Depth + B] = defacto::canInterchange(DI, A, B);
}

std::shared_ptr<const KernelSession> KernelSession::create(Kernel Source) {
  return std::make_shared<const KernelSession>(std::move(Source));
}

SaturationInfo KernelSession::saturation(unsigned NumMemories) const {
  SaturationInfo Info = Sat;
  Info.Psat = saturationPoint(Sat.R, Sat.W, NumMemories);
  return Info;
}

bool KernelSession::canInterchange(unsigned A, unsigned B) const {
  return A < Depth && B < Depth && Legal[A * Depth + B];
}

//===----------------------------------------------------------------------===//
// KernelSessionCache
//===----------------------------------------------------------------------===//

KernelSessionCache::KernelSessionCache(size_t MaxEntries, size_t MaxBytes)
    : MaxEntries(std::max<size_t>(1, MaxEntries)), MaxBytes(MaxBytes) {}

Expected<std::shared_ptr<const KernelSession>> KernelSessionCache::getOrBuild(
    const std::string &Key, const std::function<Expected<Kernel>()> &Build) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (auto It = Index.find(Key); It != Index.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++Hits;
      ++NumSessionHits;
      return It->second->second;
    }
    ++Misses;
    ++NumSessionMisses;
  }

  // Parsing and analysis run unlocked: a cold kernel must not stall
  // lookups of warm ones.
  Expected<Kernel> K = Build();
  if (!K)
    return K.status();
  std::shared_ptr<const KernelSession> Session =
      KernelSession::create(K.takeValue());
  if (Key.size() > MaxBytes)
    return Session;

  std::lock_guard<std::mutex> Lock(M);
  if (auto It = Index.find(Key); It != Index.end())
    return It->second->second; // A concurrent miss stored it first.
  Lru.emplace_front(Key, Session);
  Index.emplace(Lru.front().first, Lru.begin());
  Bytes += Key.size();
  while (Lru.size() > MaxEntries || Bytes > MaxBytes) {
    Bytes -= Lru.back().first.size();
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Evictions;
    ++NumSessionEvictions;
  }
  return Session;
}

size_t KernelSessionCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Lru.size();
}

size_t KernelSessionCache::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Bytes;
}

uint64_t KernelSessionCache::hits() const {
  std::lock_guard<std::mutex> Lock(M);
  return Hits;
}

uint64_t KernelSessionCache::misses() const {
  std::lock_guard<std::mutex> Lock(M);
  return Misses;
}

uint64_t KernelSessionCache::evictions() const {
  std::lock_guard<std::mutex> Lock(M);
  return Evictions;
}
