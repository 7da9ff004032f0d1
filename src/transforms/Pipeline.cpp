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

/// Builds the \p Text pipeline over \p Result and runs it on Result.K,
/// verifying the outcome unless \p SkipVerify. Any failure — parse, pass,
/// or verification — degrades Result.K to a clone of \p ErrorFallback and
/// records the status in Result.Error.
void runTextOn(const std::string &Text, const TransformOptions &Opts,
               const Kernel &ErrorFallback, bool SkipVerify,
               TransformResult &Result) {
  Status S;
  {
    AnalysisManager AM;
    Expected<PassPipeline> Pipeline = buildPassPipeline(Text, Opts, Result);
    S = Pipeline ? Pipeline->run(Result.K, AM) : Pipeline.status();
  }
  if (!S.isOk()) {
    Result.Error = std::move(S);
    Result.K = ErrorFallback.clone();
    return;
  }

  if (SkipVerify)
    return;

  DEFACTO_SPAN("pipeline.verify");
  if (!isKernelValid(Result.K)) {
    Result.Error = Status::error(
        ErrorCode::MalformedIR,
        "transformation pipeline produced an invalid kernel");
    Result.K = ErrorFallback.clone();
  }
}

/// The full per-candidate pipeline over an already-normalized clone this
/// call owns; \p ErrorFallback is cloned only on failure, so the happy
/// path costs exactly one deep copy.
TransformResult runOnNormalized(Kernel Normalized,
                                const TransformOptions &Opts,
                                const Kernel &ErrorFallback) {
  DEFACTO_SPAN("pipeline.run");
  TransformResult Result(std::move(Normalized));
  runTextOn(Opts.Pipeline, Opts, ErrorFallback, /*SkipVerify=*/false, Result);
  return Result;
}

} // namespace

TransformResult defacto::finishPipeline(Kernel Staged,
                                        const TransformOptions &Opts,
                                        const Kernel &ErrorFallback,
                                        bool UnrollApplied, bool SkipVerify) {
  TransformResult Result(std::move(Staged));
  Result.UnrollApplied = UnrollApplied;
  // The sub-pipeline downstream of the memoized strip-mine/unroll/
  // normalize prefix. Opts.Pipeline is deliberately not consulted here:
  // custom pipelines bypass the stage cache entirely.
  runTextOn("scalar-repl,peel,fold,layout", Opts, ErrorFallback, SkipVerify,
            Result);
  return Result;
}

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
  Fingerprint = kernelFingerprint(Normalized);
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
