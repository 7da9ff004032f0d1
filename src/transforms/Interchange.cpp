//===- Interchange.cpp ----------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Transforms/Interchange.h"

#include "defacto/Analysis/DependenceAnalysis.h"
#include "defacto/IR/IRUtils.h"

#include <algorithm>

using namespace defacto;

bool defacto::canInterchange(const DependenceInfo &DI, unsigned PosA,
                             unsigned PosB) {
  size_t Depth = DI.nest().size();
  if (PosA >= Depth || PosB >= Depth || PosA == PosB)
    return false;

  for (const Dependence &Dep : DI.dependences()) {
    if (Dep.Kind == DepKind::Input)
      continue;
    if (!Dep.Consistent)
      return false; // No distance: conservatively block.
    std::vector<DistanceEntry> Permuted = Dep.Distance;
    std::swap(Permuted[PosA], Permuted[PosB]);
    // The permuted vector must be lexicographically non-negative. Stars
    // are canonically oriented positive by the analysis.
    for (const DistanceEntry &E : Permuted) {
      if (E.isStar())
        break; // Positive leading entry: fine.
      if (E.Value > 0)
        break;
      if (E.Value < 0)
        return false;
      // Zero: inspect the next entry.
    }
  }
  return true;
}

bool defacto::canInterchange(Kernel &K, unsigned PosA, unsigned PosB) {
  return canInterchange(DependenceInfo::compute(K), PosA, PosB);
}

bool defacto::interchangeLoops(Kernel &K, unsigned PosA, unsigned PosB) {
  if (!canInterchange(K, PosA, PosB))
    return false;
  std::vector<ForStmt *> Nest = perfectNest(K.topLoop());
  ForStmt *A = Nest[PosA];
  ForStmt *B = Nest[PosB];

  // Swapping the loops of a perfect nest is equivalent to swapping the
  // two headers in place: bodies stay where they are, and subscripts
  // keep referring to the same ids, which now iterate at the other
  // level.
  int IdA = A->loopId();
  std::string NameA = A->indexName();
  int64_t LowerA = A->lower(), UpperA = A->upper(), StepA = A->step();

  A->setLoopId(B->loopId());
  A->setIndexName(B->indexName());
  A->setBounds(B->lower(), B->upper(), B->step());

  B->setLoopId(IdA);
  B->setIndexName(NameA);
  B->setBounds(LowerA, UpperA, StepA);
  return true;
}
