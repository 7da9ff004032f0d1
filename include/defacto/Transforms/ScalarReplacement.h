//===- ScalarReplacement.h - Register promotion of array reuse -*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar replacement (§4, Figure 1(c)): replaces array references with
/// compiler-created register temporaries so high-level synthesis exploits
/// reuse in registers. Follows Carr/Kennedy with the paper's extensions:
/// reuse is exploited across *all* loops of the nest (rotating register
/// chains for outer-loop-carried reuse), and redundant memory writes on
/// output dependences are eliminated.
///
/// Four reuse shapes are materialized, on a perfect (typically unrolled)
/// nest:
///  - CSE loads: several reads of the same element in one iteration share
///    a single load (S_0 in Figure 1(c)).
///  - Inner-invariant promotion: an element invariant in the inner loops
///    (D[j]) lives in one register across the inner sweep; its loads and
///    redundant stores leave the loop (this subsumes the paper's
///    loop-invariant code motion of memory accesses).
///  - Outer-carried chains: a read-only stream that repeats every
///    iteration of an outer loop (C[i]) is cached in a rotating register
///    chain, loaded only on the carrier's first iteration behind a
///    `if (j == 0)` guard that loop peeling later removes.
///  - Inner-carried windows: a read-only stencil window sliding along the
///    innermost loop (JAC/SOBEL neighbors) keeps the overlap in a
///    rotating window; only the leading edge is loaded each iteration.
///
/// Accesses under conditional control flow and arrays with potentially
/// aliasing (non-uniformly-generated) writes are conservatively left in
/// memory.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_TRANSFORMS_SCALARREPLACEMENT_H
#define DEFACTO_TRANSFORMS_SCALARREPLACEMENT_H

#include "defacto/IR/Kernel.h"

namespace defacto {

/// Knobs for scalar replacement.
struct ScalarReplacementOptions {
  /// Upper bound on the length of one rotating chain; streams needing
  /// more registers stay in memory (§5.4 controls totals via tiling).
  unsigned MaxChainLength = 4096;
  /// Enables the outer-carried rotating chains (C[i] style).
  bool EnableOuterCarriedChains = true;
  /// Enables the inner-carried sliding windows (stencil style).
  bool EnableWindows = true;
};

/// Static effect summary, per innermost-body execution.
struct ScalarReplacementStats {
  unsigned RegistersAllocated = 0;
  unsigned ChainsCreated = 0;
  unsigned WindowsCreated = 0;
  /// Memory reads/writes removed from (and left in) the steady-state
  /// innermost body.
  unsigned LoadsRemoved = 0;
  unsigned StoresRemoved = 0;
  unsigned LoadsKept = 0;
  unsigned StoresKept = 0;
};

/// Applies scalar replacement in place to \p K's perfect nest. Returns
/// the effect summary; a kernel without a top loop is left untouched.
ScalarReplacementStats
scalarReplace(Kernel &K, const ScalarReplacementOptions &Opts = {});

} // namespace defacto

#endif // DEFACTO_TRANSFORMS_SCALARREPLACEMENT_H
