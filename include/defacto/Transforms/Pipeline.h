//===- Pipeline.h - The paper's transformation sequence --------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composes the paper's code transformations (§4) into the sequence the
/// DSE algorithm applies per candidate design:
///
///   normalize -> (strip-mine for register control, §5.4) -> unroll-and-
///   jam -> normalize -> scalar replacement -> loop peeling -> constant
///   folding -> data layout
///
/// The input kernel is cloned; each candidate gets an independent copy.
/// The sequence is expressed as a pass pipeline (Transforms/Pass.h); the
/// default is defaultPipelineText() and TransformOptions::Pipeline
/// substitutes any registered pass sequence.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_TRANSFORMS_PIPELINE_H
#define DEFACTO_TRANSFORMS_PIPELINE_H

#include "defacto/Analysis/AnalysisManager.h"
#include "defacto/IR/Kernel.h"
#include "defacto/Transforms/DataLayout.h"
#include "defacto/Transforms/LoopPeeling.h"
#include "defacto/Transforms/ScalarReplacement.h"
#include "defacto/Transforms/UnrollAndJam.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace defacto {

/// Configuration of one candidate design's code transformations.
struct TransformOptions {
  /// Unroll factors per nest position (outermost first); missing entries
  /// default to 1.
  UnrollVector Unroll;
  /// Strip-mine the nest loop at this position to this tile size before
  /// unrolling (register-pressure control, §5.4). The position indexes
  /// the post-interchange nest when Interchange is set.
  std::optional<std::pair<unsigned, int64_t>> StripMine;
  /// Loop permutation the "interchange" pass applies before strip-mining:
  /// entry i names the original nest position that lands at position i
  /// (outermost first). Empty means identity (the pass is a no-op).
  std::vector<unsigned> Interchange;
  /// Pass-pipeline description ("normalize,unroll,..."); empty runs the
  /// default §4 sequence (defaultPipelineText(); the interchange variant
  /// when Interchange is set). Parsed by buildPassPipeline — unknown pass
  /// names surface as TransformResult::Error.
  std::string Pipeline;
  bool EnableScalarReplacement = true;
  bool EnablePeeling = true;
  bool EnableDataLayout = true;
  ScalarReplacementOptions SR;
  DataLayoutOptions Layout;
};

/// Outcome of the pipeline: the transformed kernel plus per-pass
/// statistics the DSE algorithm and the tests consume.
struct TransformResult {
  Kernel K;
  ScalarReplacementStats SR;
  PeelingStats Peeling;
  DataLayoutStats Layout;
  bool UnrollApplied = false;
  /// Non-ok when a pass failed or the result failed verification; K then
  /// holds an untransformed clone of the source (still valid IR) so the
  /// caller can degrade instead of crash.
  Status Error;

  bool ok() const { return Error.isOk(); }

  explicit TransformResult(Kernel Transformed) : K(std::move(Transformed)) {}
};

/// Runs the pipeline on a clone of \p Source. The unroll vector must be
/// valid for the (possibly strip-mined) nest or UnrollApplied is false
/// and only the remaining passes run. Never aborts: failures are
/// reported through TransformResult::Error.
TransformResult applyPipeline(const Kernel &Source,
                              const TransformOptions &Opts);

/// Unroll-invariant per-kernel state, hoisted out of the per-design path:
/// the source kernel normalized exactly once. A context is immutable
/// after construction and safe to share read-only across the exploration
/// engine's worker threads; every candidate design then costs one clone
/// of the pre-normalized kernel instead of clone + renormalization.
class PipelineContext {
public:
  explicit PipelineContext(const Kernel &Source);

  /// The normalized base kernel. Never mutate this through a cast: the
  /// clones handed to the per-design pipeline are taken from it
  /// concurrently.
  const Kernel &normalized() const { return Normalized; }

  /// Debug-only guard: aborts if the shared base kernel was mutated since
  /// construction (a worker wrote through the read-only share). Release
  /// builds: no-op.
  void assertUnchanged() const;

  /// The analysis cache over the normalized kernel, warmed with the
  /// dependence analysis at construction (it is unroll-invariant, so no
  /// per-design path recomputes it). Read-only after construction and
  /// safe to share across worker threads.
  const AnalysisManager &analyses() const { return Analyses; }

private:
  Kernel Normalized;
  AnalysisManager Analyses;
  /// kernelFingerprint(Normalized) at construction, assertUnchanged()'s
  /// reference; computed only in builds with assertions.
  uint64_t Fingerprint = 0;
};

/// applyPipeline() over a shared context: identical result to the
/// Kernel overload, minus the redundant initial normalization.
TransformResult applyPipeline(const PipelineContext &Ctx,
                              const TransformOptions &Opts);

} // namespace defacto

#endif // DEFACTO_TRANSFORMS_PIPELINE_H
