//===- interchange_test.cpp - Loop interchange tests ----------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Analysis/DependenceAnalysis.h"
#include "defacto/Frontend/Parser.h"
#include "defacto/IR/IRPrinter.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Sim/Interpreter.h"
#include "defacto/Transforms/Interchange.h"
#include "defacto/Transforms/Normalize.h"
#include "defacto/Transforms/ScalarReplacement.h"
#include "defacto/Transforms/Tiling.h"

#include <gtest/gtest.h>

using namespace defacto;

namespace {

Kernel parseOrDie(const std::string &Src) {
  DiagnosticEngine Diags;
  auto K = parseKernel(Src, "t", Diags);
  EXPECT_TRUE(K.has_value()) << Diags.toString();
  return std::move(*K);
}

// A[i][j] = A[i-1][j+1]: distance (1, -1), negative once interchanged.
const char *const SkewedAntiSource = "int A[18][18];\n"
                                     "for (i = 1; i < 17; i++)\n"
                                     "  for (j = 1; j < 17; j++)\n"
                                     "    A[i][j] = A[i - 1][j + 1] + 1;\n";

// A[i][j] = A[i-1][j-1]: distance (1, 1), positive either way.
const char *const SkewedFlowSource = "int A[18][18];\n"
                                     "for (i = 1; i < 17; i++)\n"
                                     "  for (j = 1; j < 17; j++)\n"
                                     "    A[i][j] = A[i - 1][j - 1] + 1;\n";

} // namespace

TEST(Interchange, SwapsHeaders) {
  Kernel FIR = buildKernel("FIR");
  std::vector<ForStmt *> Nest = perfectNest(FIR.topLoop());
  std::string OuterName = Nest[0]->indexName();
  std::string InnerName = Nest[1]->indexName();
  ASSERT_TRUE(interchangeLoops(FIR, 0, 1));
  Nest = perfectNest(FIR.topLoop());
  EXPECT_EQ(Nest[0]->indexName(), InnerName);
  EXPECT_EQ(Nest[1]->indexName(), OuterName);
  EXPECT_TRUE(isKernelValid(FIR));
}

TEST(Interchange, PreservesSemanticsOnAllKernels) {
  for (const KernelSpec &Spec : paperKernels()) {
    Kernel K = buildKernel(Spec.Name);
    auto Reference = simulate(K, 17);
    if (!canInterchange(K, 0, 1))
      continue;
    ASSERT_TRUE(interchangeLoops(K, 0, 1)) << Spec.Name;
    EXPECT_TRUE(isKernelValid(K)) << Spec.Name;
    EXPECT_EQ(simulate(K, 17), Reference) << Spec.Name;
  }
}

TEST(Interchange, RejectsIllegalSwap) {
  // Distance (1, -1) interchanged becomes (-1, 1): lexicographically
  // negative, so the swap must be rejected.
  Kernel K = parseOrDie(SkewedAntiSource);
  EXPECT_FALSE(canInterchange(K, 0, 1));
  auto Reference = simulate(K, 2);
  EXPECT_FALSE(interchangeLoops(K, 0, 1));
  EXPECT_EQ(simulate(K, 2), Reference); // Untouched.
}

TEST(Interchange, AllowsLegalSkewedDependence) {
  // Distance (1, 1) stays lexicographically positive either way.
  Kernel K = parseOrDie(SkewedFlowSource);
  EXPECT_TRUE(canInterchange(K, 0, 1));
  auto Reference = simulate(K, 2);
  ASSERT_TRUE(interchangeLoops(K, 0, 1));
  EXPECT_EQ(simulate(K, 2), Reference);
}

TEST(Interchange, CachedAnalysisAgreesWithPerKernelCheck) {
  // The DependenceInfo overload (what KernelSession's legality matrix is
  // built from) must decide exactly like the per-kernel check, for every
  // pair including out-of-range positions.
  std::vector<Kernel> Fixtures;
  Fixtures.push_back(parseOrDie(SkewedAntiSource));
  Fixtures.push_back(parseOrDie(SkewedFlowSource));
  for (const auto *Specs : {&paperKernels(), &extendedKernels()})
    for (const KernelSpec &Spec : *Specs)
      Fixtures.push_back(buildKernel(Spec.Name));
  for (Kernel &K : Fixtures) {
    DependenceInfo DI = DependenceInfo::compute(K);
    unsigned Depth = DI.nest().size();
    for (unsigned A = 0; A <= Depth; ++A)
      for (unsigned B = 0; B <= Depth; ++B)
        EXPECT_EQ(canInterchange(DI, A, B), canInterchange(K, A, B))
            << K.name() << " (" << A << ", " << B << ")";
  }
}

TEST(Interchange, RejectsBadPositions) {
  Kernel FIR = buildKernel("FIR");
  EXPECT_FALSE(interchangeLoops(FIR, 0, 0));
  EXPECT_FALSE(interchangeLoops(FIR, 0, 5));
  EXPECT_FALSE(interchangeLoops(FIR, 7, 8));
}

TEST(Interchange, ThreeDeepMiddleSwap) {
  Kernel MM = buildKernel("MM");
  auto Reference = simulate(MM, 44);
  ASSERT_TRUE(interchangeLoops(MM, 1, 2)); // j <-> k.
  EXPECT_TRUE(isKernelValid(MM));
  EXPECT_EQ(simulate(MM, 44), Reference);
}

TEST(Interchange, TilingPlusInterchangeShrinksChains) {
  // The §5.4 recipe in full: strip-mine FIR's i loop to a tile of 8 and
  // hoist the tile loop above j. The C chain then spans one tile (8
  // registers) instead of the whole sweep (32).
  Kernel FullReuse = buildKernel("FIR");
  normalizeLoops(FullReuse);
  ScalarReplacementStats FullStats = scalarReplace(FullReuse);

  Kernel Tiled = buildKernel("FIR");
  auto Reference = simulate(Tiled, 64);
  normalizeLoops(Tiled);
  int InnerId = perfectNest(Tiled.topLoop())[1]->loopId();
  ASSERT_TRUE(stripMine(Tiled, InnerId, 8));
  // Nest is now (j, i_tile, i_strip); hoist the tile loop outward.
  ASSERT_TRUE(interchangeLoops(Tiled, 0, 1));
  ScalarReplacementStats TiledStats = scalarReplace(Tiled);

  EXPECT_LT(TiledStats.RegistersAllocated, FullStats.RegistersAllocated);
  EXPECT_LE(TiledStats.RegistersAllocated, 8u + 4u);
  EXPECT_TRUE(isKernelValid(Tiled));
  EXPECT_EQ(simulate(Tiled, 64), Reference);
}

TEST(Interchange, GoldenPrintedIR) {
  // The exact IR an interchange must produce: the two headers swap
  // wholesale (bounds, index names, loop ids travel with their loops)
  // while the body is untouched.
  Kernel K = parseOrDie("int A[8][12];\n"
                        "for (i = 0; i < 8; i++)\n"
                        "  for (j = 0; j < 12; j++)\n"
                        "    A[i][j] = A[i][j] + 2;\n");
  normalizeLoops(K);
  ASSERT_TRUE(canInterchange(K, 0, 1));
  ASSERT_TRUE(interchangeLoops(K, 0, 1));
  EXPECT_TRUE(isKernelValid(K));
  EXPECT_EQ(printKernel(K), "// kernel t\n"
                            "int A[8][12];\n"
                            "for (j = 0; j < 12; j += 1) {\n"
                            "  for (i = 0; i < 8; i += 1) {\n"
                            "    A[i][j] = (A[i][j] + 2);\n"
                            "  }\n"
                            "}\n");
}
