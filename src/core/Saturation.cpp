//===- Saturation.cpp -----------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/Saturation.h"

#include "defacto/Analysis/UniformlyGenerated.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Support/MathExtras.h"
#include "defacto/Transforms/Normalize.h"
#include "defacto/Transforms/Pipeline.h"

using namespace defacto;

namespace {

/// Collects the steady-state residual array accesses: everything outside
/// first-iteration guards (guard bodies hold chain/window warm-up loads
/// that peeling will move out of the main loop).
void collectSteadyAccesses(StmtList &Stmts, bool InGuard,
                           std::vector<ArrayAccessExpr *> &Out) {
  for (StmtPtr &SP : Stmts) {
    if (auto *F = dyn_cast<ForStmt>(SP.get())) {
      collectSteadyAccesses(F->body(), InGuard, Out);
    } else if (auto *I = dyn_cast<IfStmt>(SP.get())) {
      collectSteadyAccesses(I->thenBody(), /*InGuard=*/true, Out);
      collectSteadyAccesses(I->elseBody(), /*InGuard=*/true, Out);
    } else if (auto *A = dyn_cast<AssignStmt>(SP.get())) {
      if (InGuard)
        continue;
      auto visit = [&Out](Expr *E) {
        walkExpr(E, [&Out](Expr *X) {
          if (auto *Acc = dyn_cast<ArrayAccessExpr>(X))
            Out.push_back(Acc);
        });
      };
      visit(A->dest());
      visit(A->value());
    }
  }
}

/// The shared analysis: \p Norm is the normalized source nest, \p R the
/// scalar-replaced pipeline result (no unrolling, peeling or layout).
SaturationInfo analyze(const Kernel &Norm, TransformResult R,
                       unsigned NumMemories) {
  SaturationInfo Info;

  // The nest shape comes from the normalized source (scalar replacement
  // hoists loads between nest levels, which would otherwise hide outer
  // loops behind imperfect bodies). Loop ids are stable across the
  // pipeline's clone, so positions can be matched by id.
  ForStmt *SrcTop = Norm.topLoop();
  if (!SrcTop)
    return Info;
  std::vector<int> NestIds;
  for (ForStmt *F : perfectNest(SrcTop)) {
    NestIds.push_back(F->loopId());
    Info.Trips.push_back(F->tripCount());
  }
  Info.MemoryVarying.assign(NestIds.size(), false);

  // Residual accesses after scalar replacement (the guards mark the
  // non-steady accesses).
  std::vector<ArrayAccessExpr *> Steady;
  collectSteadyAccesses(R.K.body(), /*InGuard=*/false, Steady);

  // Partition residual accesses into uniformly generated sets; the
  // statements they came from determine read/write, so re-walk with the
  // same exclusion to classify.
  UGPartition Part;
  {
    // Reconstruct read/write classification by matching collected
    // pointers against a full access walk.
    std::vector<AccessInfo> All = collectArrayAccesses(R.K);
    for (ArrayAccessExpr *Acc : Steady) {
      bool IsWrite = false;
      for (const AccessInfo &Info2 : All)
        if (Info2.Access == Acc)
          IsWrite = Info2.IsWrite;
      // Insert into the partition by hand.
      auto &Sets = IsWrite ? Part.WriteSets : Part.ReadSets;
      bool Placed = false;
      for (UGSet &Set : Sets) {
        if (Set.Array == Acc->array() &&
            areUniformlyGenerated(Set.Accesses.front(), Acc)) {
          Set.Accesses.push_back(Acc);
          Placed = true;
          break;
        }
      }
      if (!Placed) {
        UGSet NewSet;
        NewSet.Array = Acc->array();
        NewSet.IsWrite = IsWrite;
        NewSet.Accesses.push_back(Acc);
        Sets.push_back(std::move(NewSet));
      }
    }
  }
  Info.R = Part.numReadSets();
  Info.W = Part.numWriteSets();

  Info.Psat = saturationPoint(Info.R, Info.W, NumMemories);

  for (ArrayAccessExpr *Acc : Steady)
    for (const AffineExpr &Sub : Acc->subscripts())
      for (int Id : Sub.loopIds())
        for (unsigned P = 0; P != NestIds.size(); ++P)
          if (NestIds[P] == Id)
            Info.MemoryVarying[P] = true;

  return Info;
}

/// The pipeline configuration saturation analyzes: scalar replacement
/// without unrolling, peeling or layout.
TransformOptions residualOptions() {
  TransformOptions Opts;
  Opts.EnablePeeling = false;
  Opts.EnableDataLayout = false;
  return Opts;
}

} // namespace

int64_t defacto::saturationPoint(unsigned R, unsigned W,
                                 unsigned NumMemories) {
  int64_t G = gcd64(R, W);
  if (G == 0)
    G = 1;
  return lcm64(G, NumMemories == 0 ? 1 : NumMemories);
}

SaturationInfo defacto::computeSaturation(const Kernel &Source,
                                          unsigned NumMemories) {
  Kernel Norm = Source.clone();
  normalizeLoops(Norm);
  return analyze(Norm, applyPipeline(Source, residualOptions()),
                 NumMemories);
}

SaturationInfo defacto::computeSaturation(const PipelineContext &Ctx,
                                          unsigned NumMemories) {
  return analyze(Ctx.normalized(), applyPipeline(Ctx, residualOptions()),
                 NumMemories);
}
