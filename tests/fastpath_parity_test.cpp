//===- fastpath_parity_test.cpp - Arena evaluation route bit-identity -----===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The evaluation service runs each candidate's applyPipeline over the
/// session's shared PipelineContext inside a per-worker IRArena that is
/// reset after every attempt. That route must not move a single bit:
///
///   * applyPipeline over a PipelineContext, inside an active arena,
///     prints IR identical to the heap applyPipeline over the source
///     kernel for every paper kernel across unroll vectors and
///     strip-mining, and again after the arena's blocks are recycled;
///
/// plus the IRArena unit contract the route leans on: arena clones print
/// identically to heap clones, reset() recycles blocks, and a suspended
/// scope (IRArenaScope(nullptr)) durably heap-allocates.
///
/// paper_answers_test pins every kernel x platform x strategy against
/// the committed golden answers at 1 and 8 threads.
///
//===----------------------------------------------------------------------===//

#include "defacto/IR/IRPrinter.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Arena.h"
#include "defacto/Transforms/Pipeline.h"

#include <gtest/gtest.h>

using namespace defacto;

//===----------------------------------------------------------------------===//
// Arena + shared context == heap applyPipeline, printed-IR exact.
//===----------------------------------------------------------------------===//

TEST(FastpathParity, ArenaPipelinePrintsLikeHeapPipeline) {
  std::vector<TransformOptions> Configs;
  for (UnrollVector U : std::vector<UnrollVector>{
           {1}, {2}, {4}, {1, 2}, {2, 2}, {4, 2}, {2, 2, 2}, {1, 1, 4}}) {
    TransformOptions O;
    O.Unroll = std::move(U);
    Configs.push_back(O);
  }
  {
    // Strip-mining interacts with renormalization; the context route
    // must reproduce it exactly.
    TransformOptions O;
    O.Unroll = {2, 2};
    O.StripMine = {{0, 4}};
    Configs.push_back(O);
    O.Unroll = {1, 2};
    O.StripMine = {{1, 4}};
    Configs.push_back(O);
  }

  IRArena Arena;
  for (const KernelSpec &Spec : paperKernels()) {
    Kernel K = buildKernel(Spec.Name);
    PipelineContext Ctx(K);
    for (const TransformOptions &Opts : Configs) {
      SCOPED_TRACE(Spec.Name + "/U=" + unrollVectorToString(Opts.Unroll) +
                   (Opts.StripMine ? "/stripmined" : ""));
      TransformResult Heap = applyPipeline(K, Opts);
      // Twice: the second run reuses the blocks the first one released.
      for (int Round = 0; Round != 2; ++Round) {
        SCOPED_TRACE(Round == 0 ? "fresh arena" : "recycled arena");
        {
          IRArenaScope Scope(&Arena);
          TransformResult InArena = applyPipeline(Ctx, Opts);
          ASSERT_EQ(Heap.ok(), InArena.ok());
          if (Heap.ok()) {
            EXPECT_EQ(printKernel(Heap.K), printKernel(InArena.K));
          }
        }
        Arena.reset();
      }
    }
  }
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
