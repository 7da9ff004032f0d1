//===- session_test.cpp - Per-kernel session store tests ------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// KernelSession holds a kernel's unroll-invariant analysis so that many
// explorations share it; KernelSessionCache bounds how many the daemon
// keeps. These tests pin that sharing changes nothing: a service built
// over one reused session answers bit-identically to a fresh one, the
// session's saturation and interchange legality match independent
// re-analyses, and the store honors its entry and byte bounds.
//
//===----------------------------------------------------------------------===//

#include "defacto/Analysis/DependenceAnalysis.h"
#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/KernelSession.h"
#include "defacto/Frontend/Parser.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Transforms/Interchange.h"
#include "defacto/Transforms/Normalize.h"

#include "gtest/gtest.h"

#include <cstdio>

using namespace defacto;

namespace {

std::vector<std::string> namedKernels() {
  std::vector<std::string> Names;
  for (const KernelSpec &S : paperKernels())
    Names.push_back(S.Name);
  for (const KernelSpec &S : extendedKernels())
    Names.push_back(S.Name);
  return Names;
}

std::string hexfloat(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

/// Everything a served answer is judged by: the winner, its bit-exact
/// estimate, the budget spent, and the decision digest.
struct Answer {
  std::string Selected;
  std::string Cycles;
  std::string Slices;
  unsigned Evaluations = 0;
  std::vector<std::string> Digest;
};

Answer answerOf(const ExplorationResult &E, const TraceRecorder &R) {
  Answer A;
  A.Selected = E.SelectedPoint.isUnrollOnly()
                   ? unrollVectorToString(E.Selected)
                   : E.SelectedPoint.toString();
  A.Cycles = std::to_string(E.SelectedEstimate.Cycles);
  A.Slices = hexfloat(E.SelectedEstimate.Slices);
  A.Evaluations = E.EvaluationsUsed;
  A.Digest = R.decisionDigest();
  return A;
}

//===----------------------------------------------------------------------===//
// Session-built services answer exactly like fresh ones
//===----------------------------------------------------------------------===//

TEST(KernelSession, SharedSessionAnswersMatchFreshServices) {
  const TargetPlatform Platforms[] = {TargetPlatform::wildstarPipelined(),
                                      TargetPlatform::wildstarNonPipelined()};
  const char *Strategies[] = {"guided", "guided+tile", "exhaustive"};

  // The same jobs run twice, concurrently within each run. Fresh: every
  // job builds a private session from its kernel. Shared: all jobs of a
  // kernel share one session, on every platform and strategy (Psat
  // differs per board). The guided walks estimate independently (a cache
  // per run); the shared exhaustive sweeps replay the fresh run's cache,
  // which still pins their walk, budget and digest at half the cost.
  BatchOptions B;
  B.NumThreads = 4;
  B.Cache = std::make_shared<EstimateCache>();
  BatchExplorer Fresh(B), SharedReplay(B);
  auto SharedCache = std::make_shared<EstimateCache>();
  B.Cache = SharedCache;
  BatchExplorer Shared(B);
  struct Job {
    std::string Label;
    std::shared_ptr<TraceRecorder> FreshTrace, SharedTrace;
    bool Replay;
  };
  std::vector<Job> Jobs;
  auto optionsFor = [](const TargetPlatform &P,
                       std::shared_ptr<TraceRecorder> &Recorder) {
    Recorder = std::make_shared<TraceRecorder>();
    Recorder->setEnabled(true);
    ExplorerOptions O;
    O.Platform = P;
    O.MaxEvaluations = 40;
    O.Trace = Recorder;
    return O;
  };
  for (const std::string &Name : namedKernels()) {
    auto Session = KernelSession::create(buildKernel(Name));
    for (const char *Strategy : Strategies)
      for (const TargetPlatform &P : Platforms) {
        Job J{Name + " @ " + P.Name + " ; " + Strategy, nullptr, nullptr,
              std::string(Strategy) == "exhaustive"};
        Fresh.addJob(BatchJob(J.Label, buildKernel(Name),
                              optionsFor(P, J.FreshTrace), Strategy));
        (J.Replay ? SharedReplay : Shared)
            .addJob(BatchJob(J.Label, Session, optionsFor(P, J.SharedTrace),
                             Strategy));
        Jobs.push_back(std::move(J));
      }
  }
  std::vector<BatchResult> FreshResults = Fresh.runAll();
  std::vector<BatchResult> SharedResults = Shared.runAll();
  std::vector<BatchResult> ReplayResults = SharedReplay.runAll();
  ASSERT_EQ(FreshResults.size(), Jobs.size());
  ASSERT_EQ(SharedResults.size() + ReplayResults.size(), Jobs.size());
  size_t NextShared = 0, NextReplay = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const Job &J = Jobs[I];
    SCOPED_TRACE(J.Label);
    const ExplorationResult &X = FreshResults[I].Result;
    const ExplorationResult &Y = J.Replay
                                     ? ReplayResults[NextReplay++].Result
                                     : SharedResults[NextShared++].Result;
    Answer AX = answerOf(X, *J.FreshTrace);
    Answer AY = answerOf(Y, *J.SharedTrace);
    EXPECT_EQ(AX.Selected, AY.Selected);
    EXPECT_EQ(AX.Cycles, AY.Cycles);
    EXPECT_EQ(AX.Slices, AY.Slices);
    EXPECT_EQ(AX.Evaluations, AY.Evaluations);
    EXPECT_FALSE(AX.Digest.empty());
    EXPECT_EQ(AX.Digest, AY.Digest);
    EXPECT_EQ(X.Sat.Psat, Y.Sat.Psat);
  }
  // The shared guided walks estimated for themselves.
  EXPECT_GT(SharedCache->stats().Misses, 0u);
}

TEST(KernelSession, SaturationMatchesStandaloneAnalysis) {
  for (const std::string &Name : namedKernels()) {
    Kernel K = buildKernel(Name);
    auto Session = KernelSession::create(K.clone());
    for (unsigned Memories : {0u, 1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(Name + " memories=" + std::to_string(Memories));
      SaturationInfo Want = computeSaturation(K, Memories);
      SaturationInfo Got = Session->saturation(Memories);
      EXPECT_EQ(Got.R, Want.R);
      EXPECT_EQ(Got.W, Want.W);
      EXPECT_EQ(Got.Psat, Want.Psat);
      EXPECT_EQ(Got.MemoryVarying, Want.MemoryVarying);
      EXPECT_EQ(Got.Trips, Want.Trips);
    }
    EXPECT_EQ(Session->fingerprint(), kernelFingerprint(K));
    EXPECT_EQ(Session->space().numLoops(),
              Session->saturation(4).Trips.size());
  }
}

TEST(KernelSession, LegalityMatrixMatchesPerPairAnalysis) {
  std::vector<Kernel> Kernels;
  for (const std::string &Name : namedKernels())
    Kernels.push_back(buildKernel(Name));
  // The paper kernels allow every swap; these two fixtures reject one.
  for (const char *Src : {"int A[18][18];\n"
                          "for (i = 1; i < 17; i++)\n"
                          "  for (j = 1; j < 17; j++)\n"
                          "    A[i][j] = A[i - 1][j + 1] + 1;\n",
                          "int A[18][18];\n"
                          "for (i = 1; i < 17; i++)\n"
                          "  for (j = 1; j < 17; j++)\n"
                          "    A[i][j] = A[i - 1][j - 1] + 1;\n"}) {
    DiagnosticEngine Diags;
    std::optional<Kernel> K = parseKernel(Src, "skew", Diags);
    ASSERT_TRUE(K.has_value()) << Diags.toString();
    Kernels.push_back(std::move(*K));
  }
  unsigned Illegal = 0;
  for (const Kernel &K : Kernels) {
    auto Session = KernelSession::create(K.clone());
    // The pipeline's interchange pass sees the normalized nest.
    Kernel Norm = K.clone();
    normalizeLoops(Norm);
    DependenceInfo DI = DependenceInfo::compute(Norm);
    unsigned Depth = DI.nest().size();
    ASSERT_GE(Depth, 1u) << K.name();
    // One past the nest on both axes: out-of-range pairs are illegal.
    for (unsigned A = 0; A <= Depth; ++A)
      for (unsigned B = 0; B <= Depth; ++B) {
        SCOPED_TRACE(K.name() + " (" + std::to_string(A) + ", " +
                     std::to_string(B) + ")");
        bool PerPair = canInterchange(Norm, A, B);
        EXPECT_EQ(canInterchange(DI, A, B), PerPair);
        EXPECT_EQ(Session->canInterchange(A, B), PerPair);
        Illegal += A < Depth && B < Depth && A != B && !PerPair;
      }
  }
  EXPECT_EQ(Illegal, 2u); // (0, 1) and (1, 0) of the first fixture
}

//===----------------------------------------------------------------------===//
// Per-job cache attribution
//===----------------------------------------------------------------------===//

TEST(KernelSession, ServicesCountTheirOwnCacheLookups) {
  auto Session = KernelSession::create(buildKernel("FIR"));
  ExplorerOptions O;
  O.MaxEvaluations = 30;
  O.Cache = std::make_shared<EstimateCache>();
  Expected<ExplorationResult> Cold = exploreWithStrategy(Session, O, "guided");
  ASSERT_TRUE(Cold);
  EXPECT_GT(Cold->CacheMisses, 0u);

  Expected<ExplorationResult> Warm = exploreWithStrategy(Session, O, "guided");
  ASSERT_TRUE(Warm);
  EXPECT_EQ(Warm->CacheMisses, 0u);
  EXPECT_GT(Warm->CacheHits, 0u);

  // A portfolio reports the sum of its sub-services' lookups.
  Expected<ExplorationResult> Mix =
      exploreWithStrategy(Session, O, "portfolio");
  ASSERT_TRUE(Mix);
  uint64_t Hits = 0, Misses = 0;
  for (const ExplorationResult &Sub : Mix->SubResults) {
    Hits += Sub.CacheHits;
    Misses += Sub.CacheMisses;
  }
  EXPECT_EQ(Mix->CacheHits, Hits);
  EXPECT_EQ(Mix->CacheMisses, Misses);
  EXPECT_GT(Hits + Misses, 0u);
}

//===----------------------------------------------------------------------===//
// KernelSessionCache bounds
//===----------------------------------------------------------------------===//

std::function<Expected<Kernel>()> builder(const char *Name) {
  return [Name]() -> Expected<Kernel> { return buildKernel(Name); };
}

TEST(KernelSessionCache, HitsReuseTheStoredSession) {
  KernelSessionCache Cache(4, 1 << 20);
  auto First = Cache.getOrBuild("kernel:FIR", builder("FIR"));
  auto Second = Cache.getOrBuild("kernel:FIR", builder("FIR"));
  ASSERT_TRUE(First && Second);
  EXPECT_EQ(First->get(), Second->get());
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytes(), std::string("kernel:FIR").size());
}

TEST(KernelSessionCache, EntryBoundEvictsLeastRecentlyUsed) {
  const size_t Cap = 3, Extra = 2;
  KernelSessionCache Cache(Cap, 1 << 20);
  for (size_t I = 0; I != Cap + Extra; ++I) {
    ASSERT_TRUE(Cache.getOrBuild("k" + std::to_string(I), builder("FIR")));
    // Keep k0 hot: it must survive every eviction.
    ASSERT_TRUE(Cache.getOrBuild("k0", builder("FIR")));
    EXPECT_LE(Cache.size(), Cap);
  }
  EXPECT_EQ(Cache.size(), Cap);
  EXPECT_EQ(Cache.evictions(), Extra);
  uint64_t Misses = Cache.misses();
  ASSERT_TRUE(Cache.getOrBuild("k0", builder("FIR")));
  EXPECT_EQ(Cache.misses(), Misses); // still stored
  ASSERT_TRUE(Cache.getOrBuild("k1", builder("FIR")));
  EXPECT_EQ(Cache.misses(), Misses + 1); // evicted first
}

TEST(KernelSessionCache, ByteBoundHoldsAndOversizedKeysAreNotStored) {
  const std::string Pad(40, 'x');
  KernelSessionCache Cache(100, 100);
  for (char C : std::string("abcde"))
    ASSERT_TRUE(Cache.getOrBuild(std::string(1, C) + Pad, builder("FIR")));
  EXPECT_LE(Cache.bytes(), Cache.maxBytes());
  EXPECT_EQ(Cache.size(), 2u); // 41-byte keys under a 100-byte bound
  EXPECT_EQ(Cache.evictions(), 3u);

  // A key larger than the whole bound is served but never stored.
  auto Big = Cache.getOrBuild(std::string(101, 'y'), builder("MM"));
  ASSERT_TRUE(Big);
  EXPECT_EQ((*Big)->source().name(), "MM");
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.evictions(), 3u);
}

TEST(KernelSessionCache, BuildFailuresAreReturnedNotStored) {
  KernelSessionCache Cache(4, 1 << 20);
  auto Failing = []() -> Expected<Kernel> {
    return Status::error(ErrorCode::InvalidInput, "no such kernel");
  };
  auto R = Cache.getOrBuild("bad", Failing);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.status().message(), "no such kernel");
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_FALSE(Cache.getOrBuild("bad", Failing));
  EXPECT_EQ(Cache.misses(), 2u);
}

} // namespace
