//===- Saturation.h - Saturation point analysis ----------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The saturation point (§5.1): the unroll product at which the design's
/// memory parallelism reaches the board's bandwidth,
///
///     Psat = lcm(gcd(R, W), NumMemories)
///
/// where R and W are the numbers of uniformly generated read and write
/// sets that remain as memory accesses after scalar replacement and
/// redundant write elimination. Only loops whose residual accesses vary
/// with them contribute memory parallelism when unrolled (§5.1's "ui = 1
/// for loops whose subscripts are invariant"), so the analysis also
/// reports which nest positions are worth unrolling for bandwidth.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_SATURATION_H
#define DEFACTO_CORE_SATURATION_H

#include "defacto/IR/Kernel.h"

#include <cstdint>
#include <vector>

namespace defacto {

class PipelineContext;

/// Saturation analysis result.
struct SaturationInfo {
  /// Uniformly generated read sets with residual memory accesses.
  unsigned R = 0;
  /// Uniformly generated write sets with residual memory accesses.
  unsigned W = 0;
  /// Psat = lcm(gcd(R, W), NumMemories).
  int64_t Psat = 1;
  /// Per nest position: true when residual steady-state accesses vary
  /// with that loop (unrolling it adds memory parallelism).
  std::vector<bool> MemoryVarying;
  /// Trip count per nest position of the normalized source nest.
  std::vector<int64_t> Trips;
};

/// Computes saturation data for \p Source (an untransformed kernel). The
/// analysis applies normalization and scalar replacement internally to
/// find the residual accesses; \p Source is not modified.
SaturationInfo computeSaturation(const Kernel &Source, unsigned NumMemories);

/// computeSaturation() over an already-normalized context: the identical
/// result, reading the nest shape from Ctx.normalized() instead of
/// normalizing another clone.
SaturationInfo computeSaturation(const PipelineContext &Ctx,
                                 unsigned NumMemories);

/// Psat = lcm(gcd(R, W), NumMemories), with gcd 0 and 0 memories read
/// as 1. Everything else in SaturationInfo is platform-independent, so
/// callers holding one analysis re-derive Psat per board with this.
int64_t saturationPoint(unsigned R, unsigned W, unsigned NumMemories);

} // namespace defacto

#endif // DEFACTO_CORE_SATURATION_H
