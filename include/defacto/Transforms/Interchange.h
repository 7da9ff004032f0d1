//===- Interchange.h - Loop interchange ------------------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop interchange on a perfect nest. Needed to realize §5.4's tiling:
/// strip-mining alone leaves a reuse chain's span unchanged — the tile
/// loop must move outside the reuse carrier so the localized iteration
/// space (and with it the rotating chain) shrinks to the tile.
///
/// Legality: every non-input dependence's distance vector must stay
/// lexicographically non-negative under the permutation. Star entries
/// are canonically oriented positive (the analysis normalizes
/// orientation), so a leading star stays legal. Inconsistent
/// (distance-less) non-input dependences conservatively block the
/// interchange.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_TRANSFORMS_INTERCHANGE_H
#define DEFACTO_TRANSFORMS_INTERCHANGE_H

#include "defacto/IR/Kernel.h"

namespace defacto {

class DependenceInfo;

/// True when swapping nest positions \p PosA and \p PosB preserves every
/// dependence in \p DI. Positions index DI's perfect nest, outermost
/// first. Callers holding a cached analysis (KernelSession's legality
/// matrix) ask this instead of re-analyzing the kernel per pair.
bool canInterchange(const DependenceInfo &DI, unsigned PosA, unsigned PosB);

/// canInterchange() over a fresh dependence analysis of \p K.
bool canInterchange(Kernel &K, unsigned PosA, unsigned PosB);

/// Swaps the loops at nest positions \p PosA and \p PosB in place.
/// Returns false (kernel untouched) when the positions are invalid or
/// the interchange is illegal.
bool interchangeLoops(Kernel &K, unsigned PosA, unsigned PosB);

} // namespace defacto

#endif // DEFACTO_TRANSFORMS_INTERCHANGE_H
