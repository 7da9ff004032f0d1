//===- Pipeline.cpp -------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Transforms/Pipeline.h"

#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Transforms/Normalize.h"
#include "defacto/Transforms/PassRegistry.h"

using namespace defacto;

namespace {

/// The full per-candidate pipeline over an already-normalized clone this
/// call owns: builds the Opts.Pipeline pass pipeline, runs it and
/// verifies the outcome. Any failure — parse, pass, or verification —
/// degrades Result.K to a clone of \p ErrorFallback and records the
/// status in Result.Error; the happy path costs exactly one deep copy.
TransformResult runOnNormalized(Kernel Normalized,
                                const TransformOptions &Opts,
                                const Kernel &ErrorFallback) {
  DEFACTO_SPAN("pipeline.run");
  TransformResult Result(std::move(Normalized));
  Status S;
  {
    AnalysisManager AM;
    Expected<PassPipeline> Pipeline =
        buildPassPipeline(Opts.Pipeline, Opts, Result);
    S = Pipeline ? Pipeline->run(Result.K, AM) : Pipeline.status();
  }
  if (!S.isOk()) {
    Result.Error = std::move(S);
    Result.K = ErrorFallback.clone();
    return Result;
  }

  DEFACTO_SPAN("pipeline.verify");
  if (!isKernelValid(Result.K)) {
    Result.Error = Status::error(
        ErrorCode::MalformedIR,
        "transformation pipeline produced an invalid kernel");
    Result.K = ErrorFallback.clone();
  }
  return Result;
}

} // namespace

TransformResult defacto::applyPipeline(const Kernel &Source,
                                       const TransformOptions &Opts) {
  Kernel Cloned = Source.clone();
  normalizeLoops(Cloned);
  return runOnNormalized(std::move(Cloned), Opts, Source);
}

PipelineContext::PipelineContext(const Kernel &Source)
    : Normalized(Source.clone()) {
  normalizeLoops(Normalized);
  // Warm the unroll-invariant analyses so per-design evaluation never
  // recomputes them (EvaluationService reads cachedDependence()).
  Analyses.dependence(Normalized);
#ifndef NDEBUG
  Fingerprint = kernelFingerprint(Normalized);
#endif
}

void PipelineContext::assertUnchanged() const {
#ifndef NDEBUG
  assert(kernelFingerprint(Normalized) == Fingerprint &&
         "shared base kernel mutated by a pipeline worker");
#endif
}

TransformResult defacto::applyPipeline(const PipelineContext &Ctx,
                                       const TransformOptions &Opts) {
  std::optional<Kernel> Cloned;
  {
    DEFACTO_SPAN("pipeline.clone");
    Cloned.emplace(Ctx.normalized().clone());
  }
  TransformResult Result =
      runOnNormalized(std::move(*Cloned), Opts, Ctx.normalized());
  Ctx.assertUnchanged();
  return Result;
}
