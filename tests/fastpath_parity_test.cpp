//===- fastpath_parity_test.cpp - Staged-route bit-identity guarantees ----===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The staged evaluation route (arena clones, memoized transform stages
/// with a finished-candidate level) must not move a single bit of any
/// exploration:
///
///   * the staged pipeline prints IR identical to applyPipeline() for
///     every paper kernel across unroll vectors and strip-mining;
///   * a cold and a warm TransformStageCache (candidates served from the
///     finished-kernel level, skipping every transform pass) both
///     reproduce the committed golden answer of the MM sweep — winner,
///     every candidate's estimate, and the decision digest.
///
/// paper_answers_test pins every kernel x platform x strategy against
/// the same golden file at 1 and 8 threads.
///
/// Also the IRArena unit contract the staged route leans on: arena
/// clones print identically to heap clones, reset() recycles blocks, and
/// a suspended scope (IRArenaScope(nullptr)) durably heap-allocates.
///
//===----------------------------------------------------------------------===//

#include "PaperAnswers.h"

#include "defacto/Core/Explorer.h"
#include "defacto/Core/TransformStageCache.h"
#include "defacto/IR/IRPrinter.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Arena.h"
#include "defacto/Support/Stats.h"

#include <gtest/gtest.h>

using namespace defacto;

namespace {

uint64_t statValue(const char *Group, const char *Name) {
  for (const StatSnapshot &S : StatRegistry::instance().snapshot())
    if (S.Group == Group && S.Name == Name)
      return S.Value;
  return 0;
}

/// One traced exhaustive MM sweep over \p Stages, as golden lines.
std::vector<std::string>
exhaustiveMMAnswer(std::shared_ptr<TransformStageCache> Stages) {
  auto Trace = std::make_shared<TraceRecorder>();
  Trace->setEnabled(true);
  ExplorerOptions Opts;
  Opts.Trace = Trace;
  Opts.StageCache = std::move(Stages);
  ExplorationResult R = exploreExhaustive(buildKernel("MM"), Opts);
  return paper_answers::answerLines("MM", Opts.Platform.Name, "exhaustive",
                                    R, Trace->decisionDigest());
}

} // namespace

//===----------------------------------------------------------------------===//
// Staged pipeline == applyPipeline, printed-IR exact.
//===----------------------------------------------------------------------===//

TEST(FastpathParity, StagedPipelinePrintsIdenticalIR) {
  std::vector<TransformOptions> Configs;
  for (UnrollVector U : std::vector<UnrollVector>{
           {1}, {2}, {4}, {1, 2}, {2, 2}, {4, 2}, {2, 2, 2}, {1, 1, 4}}) {
    TransformOptions O;
    O.Unroll = std::move(U);
    Configs.push_back(O);
  }
  {
    // Strip-mining interacts with renormalization; the staged route must
    // either reproduce it exactly or fall back — both print identically.
    TransformOptions O;
    O.Unroll = {2, 2};
    O.StripMine = {{0, 4}};
    Configs.push_back(O);
    O.Unroll = {1, 2};
    O.StripMine = {{1, 4}};
    Configs.push_back(O);
  }

  for (const KernelSpec &Spec : paperKernels()) {
    Kernel K = buildKernel(Spec.Name);
    PipelineContext Ctx(K);
    auto Cache = std::make_shared<TransformStageCache>();
    StagedPipeline Fast(Ctx, Cache);
    for (const TransformOptions &Opts : Configs) {
      SCOPED_TRACE(Spec.Name + "/U=" + unrollVectorToString(Opts.Unroll) +
                   (Opts.StripMine ? "/stripmined" : ""));
      TransformResult Slow = applyPipeline(Ctx, Opts);
      // Twice: first populates the stage (and final) cache, second is
      // served from it — both must print like the unstaged pipeline.
      for (int Round = 0; Round != 2; ++Round) {
        SCOPED_TRACE(Round == 0 ? "cold" : "warm");
        TransformResult FastR = Fast.run(Opts);
        ASSERT_EQ(Slow.ok(), FastR.ok());
        if (Slow.ok()) {
          EXPECT_EQ(printKernel(Slow.K), printKernel(FastR.K));
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Warm stage cache: the finished-kernel level reproduces the golden answer.
//===----------------------------------------------------------------------===//

TEST(FastpathParity, WarmFinalCacheReproducesGoldenAnswer) {
  std::vector<std::string> Golden = paper_answers::goldenAnswer(
      "MM", TargetPlatform::wildstarPipelined().Name, "exhaustive");
  ASSERT_FALSE(Golden.empty()) << "no MM exhaustive answer in "
                               << paper_answers::goldenPath();

  StatRegistry::instance().setEnabled(true);
  auto Stages = std::make_shared<TransformStageCache>();
  std::vector<std::string> Cold = exhaustiveMMAnswer(Stages);
  uint64_t HitsAfterCold = statValue("cache", "final_hits");
  std::vector<std::string> Warm = exhaustiveMMAnswer(Stages);
  uint64_t HitsAfterWarm = statValue("cache", "final_hits");
  StatRegistry::instance().setEnabled(false);

  // The second sweep was actually served from the finished-kernel level —
  // otherwise this test would silently degrade into a second cold sweep.
  EXPECT_GT(HitsAfterWarm, HitsAfterCold);

  EXPECT_EQ(Cold, Golden);
  EXPECT_EQ(Warm, Golden);
}

//===----------------------------------------------------------------------===//
// IRArena unit contract.
//===----------------------------------------------------------------------===//

TEST(FastpathArena, ArenaClonePrintsLikeHeapClone) {
  IRArena Arena;
  for (const KernelSpec &Spec : paperKernels()) {
    SCOPED_TRACE(Spec.Name);
    Kernel K = buildKernel(Spec.Name);
    Arena.reset();
    Kernel C = K.cloneInto(Arena);
    EXPECT_EQ(printKernel(K), printKernel(C));
    EXPECT_GT(Arena.bytesAllocated(), 0u);
  }
}

TEST(FastpathArena, ResetRecyclesBlocks) {
  IRArena Arena;
  Kernel K = buildKernel("MM");
  {
    Kernel C = K.cloneInto(Arena);
    (void)C;
  }
  size_t FirstBytes = Arena.bytesAllocated();
  Arena.reset();
  EXPECT_EQ(Arena.bytesAllocated(), 0u);
  {
    Kernel C = K.cloneInto(Arena);
    EXPECT_EQ(printKernel(K), printKernel(C));
  }
  // Same kernel, same footprint: blocks were recycled, not leaked.
  EXPECT_EQ(Arena.bytesAllocated(), FirstBytes);
}

TEST(FastpathArena, SuspendedScopeAllocatesDurably) {
  IRArena Arena;
  IRArenaScope Activate(&Arena);
  Kernel K = buildKernel("FIR");
  std::string Expected = printKernel(K);
  Kernel Durable = [&] {
    IRArenaScope Suspend(nullptr); // heap-allocate despite the active arena
    return K.clone();
  }();
  size_t BytesAtClone = Arena.bytesAllocated();
  Arena.reset(); // must not invalidate the suspended-scope clone
  EXPECT_EQ(printKernel(Durable), Expected);
  (void)BytesAtClone;
}
