//===- Pass.h - Transform pass interface and pipeline ----------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The composable pass architecture behind the transformation pipeline
/// (§4). A TransformPass mutates one kernel in place and declares which
/// analyses it preserves; a PassPipeline runs an ordered sequence of
/// passes, handing each one the shared AnalysisManager and invalidating
/// the non-preserved analyses after it. The eight §4 transforms
/// (normalize, strip-mine/tiling, unroll-and-jam, interchange, scalar
/// replacement, loop peeling, constant folding, data layout) all ship as
/// passes; PassRegistry.h maps their textual names to factories and
/// parses `--pipeline=` strings into PassPipelines.
///
/// Timing convention: every pass opens the `DEFACTO_SPAN`
/// `pipeline.pass.<name>` (histogram `pipeline.pass.<name>_us`) inside
/// its own run() (function-local static resolution, the repo-wide
/// zero-cost-while-off idiom).
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_TRANSFORMS_PASS_H
#define DEFACTO_TRANSFORMS_PASS_H

#include "defacto/Support/Error.h"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace defacto {

class AnalysisManager;
class Kernel;
class PreservedAnalyses;

/// One code transformation over a kernel. Implementations mutate the
/// kernel in place; a non-ok Status aborts the pipeline (the executor
/// restores the caller's error-fallback clone). Pass objects are cheap,
/// single-use, and never shared across threads — the registry builds a
/// fresh instance per pipeline run.
class TransformPass {
public:
  virtual ~TransformPass();

  /// The registry name ("normalize", "unroll", ...), also the suffix of
  /// the pass's pipeline.pass.<name> span.
  virtual std::string name() const = 0;

  /// Runs the transformation on \p K. \p AM serves cached analyses of the
  /// kernel's current state; results the pass computes through it are
  /// shared with later passes until invalidated.
  virtual Status run(Kernel &K, AnalysisManager &AM) = 0;

  /// The analyses still valid after run(). Defaults to none — the safe
  /// claim for any mutating pass. Over-claiming costs correctness only in
  /// principle: the AnalysisManager's fingerprint tag still forces a
  /// recompute for a changed kernel.
  virtual PreservedAnalyses preserved() const;
};

/// An ordered, instantiated pass sequence. Built by hand via add() or
/// from a textual description via buildPassPipeline (PassRegistry.h).
class PassPipeline {
public:
  PassPipeline();
  PassPipeline(PassPipeline &&);
  PassPipeline &operator=(PassPipeline &&);
  ~PassPipeline();

  void add(std::unique_ptr<TransformPass> Pass);

  /// Runs every pass in order on \p K, invalidating \p AM per each pass's
  /// preserved set. Stops at the first failure and returns its status;
  /// the kernel is then in the failed pass's partial state and the caller
  /// owns recovery.
  Status run(Kernel &K, AnalysisManager &AM) const;

  size_t size() const { return Passes.size(); }
  const TransformPass &pass(size_t Index) const { return *Passes[Index]; }

private:
  std::vector<std::unique_ptr<TransformPass>> Passes;
};

} // namespace defacto

#endif // DEFACTO_TRANSFORMS_PASS_H
