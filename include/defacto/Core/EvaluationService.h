//===- EvaluationService.h - The design-evaluation layer -------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mechanics half of the exploration engine: everything a search
/// policy needs to turn an unroll vector into a synthesis estimate,
/// with none of the policy itself. The service owns
///
///  - the estimator backend seam (ExplorerOptions::Estimator; a
///    FaultInjector wraps one backend in a fault-injecting one),
///  - the shared EstimateCache (positive and negative entries, in-flight
///    dedup via the ticket protocol),
///  - the degradation policy: retries with capped backoff, the wall-clock
///    deadline, and the evaluation budget with the engine's
///    charge-on-consumption semantics (a cached result charges the
///    attempts its original computation cost when it is consumed, not
///    when a worker computes it),
///  - the candidate fan-out: fanOut() estimates a candidate list on the
///    caller-supplied worker pool; the strategy then consumes the
///    memoized results in its own deterministic order,
///  - per-evaluation observability: the "dse.decision" / "dse.failure" /
///    "dse.selection" trace events and the explore/cache stat counters.
///
/// SearchStrategy implementations (SearchStrategy.h) drive this API;
/// DesignSpaceExplorer (Explorer.h) is a thin façade over the two
/// layers. The search context every policy shares — saturation
/// analysis, the unroll space, and the §5.3 loop preference order —
/// comes from the KernelSession the service is built over, so services
/// sharing a session never re-derive it.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_EVALUATIONSERVICE_H
#define DEFACTO_CORE_EVALUATIONSERVICE_H

#include "defacto/Core/DesignSpace.h"
#include "defacto/Core/EstimateCache.h"
#include "defacto/Core/KernelSession.h"
#include "defacto/Core/Saturation.h"
#include "defacto/HLS/Estimator.h"
#include "defacto/Support/Error.h"
#include "defacto/Support/ThreadPool.h"
#include "defacto/Support/Trace.h"
#include "defacto/Transforms/Pipeline.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace defacto {

class CircuitBreakerRegistry;
struct ExplorationResult;

/// Exploration configuration, shared by every search strategy and the
/// evaluation service underneath them.
struct ExplorerOptions {
  TargetPlatform Platform = TargetPlatform::wildstarPipelined();
  /// |Balance - 1| <= tolerance counts as balanced (the paper's B == 1).
  double BalanceTolerance = 0.15;
  /// Budget of estimator attempts per run() (retries included). When it
  /// runs out the search stops and the best design evaluated so far is
  /// selected deterministically.
  unsigned MaxEvaluations = 100;
  /// §5.4: when set, designs needing more registers have their reuse
  /// chains shortened until the register count fits.
  std::optional<unsigned> RegisterCap;
  /// Pass toggles, for ablation studies (unroll factors are supplied by
  /// the search; the Unroll field here is ignored).
  TransformOptions BaseTransforms;

  //===--------------------------------------------------------------===//
  // Degradation policy. A synthesis-estimation backend is an unreliable
  // oracle (a real tool crashes, hangs, or times out); these knobs bound
  // what one exploration may spend on it and how it recovers.
  //===--------------------------------------------------------------===//

  /// Estimation backend; the built-in estimator when unset (the service
  /// leaves it unset, so options() copies keep the built-in backend).
  /// FaultInjector (HLS/FaultInjector.h) wraps one backend in a
  /// fault-injecting one.
  EstimatorFn Estimator;
  /// Extra attempts after a failed estimation of the same design. A
  /// design failing all 1 + MaxRetries attempts is negatively cached and
  /// recorded in ExplorationResult::Failures.
  unsigned MaxRetries = 2;
  /// Pause before the first retry; doubled each further retry and capped
  /// at MaxBackoffSeconds. 0 retries immediately.
  double RetryBackoffSeconds = 0.0;
  double MaxBackoffSeconds = 1.0;
  /// Wall-clock budget for one exploration, measured by Clock from
  /// explorer construction. 0 disables the deadline.
  double DeadlineSeconds = 0.0;
  /// Time source (seconds) and sleeper behind the deadline and backoff.
  /// Defaults read the steady clock and really sleep; tests substitute a
  /// virtual clock for determinism.
  std::function<double()> Clock;
  std::function<void(double /*Seconds*/)> Sleep;
  /// Hang watchdog: every estimator invocation runs under a
  /// CancellationScope whose token self-cancels this many seconds after
  /// the invocation starts (measured by Clock). A cooperative backend —
  /// the real estimator polls in its scheduling loops, a FaultInjector
  /// hang polls between simulated sleeps — returns ErrorCode::Cancelled,
  /// which counts as a failed attempt under the normal retry policy.
  /// 0 disables the watchdog.
  double WatchdogSeconds = 0.0;
  /// Per-backend circuit breaker registry (keyed by the platform name),
  /// shared across a batch's explorations. When set, an open circuit
  /// fails evaluations fast with ErrorCode::BackendUnavailable before
  /// they reach the backend; fast failures are never cached against the
  /// design and charge no budget. Unset: no breaker (historical
  /// behavior).
  std::shared_ptr<CircuitBreakerRegistry> Breakers;
  /// Bound on the in-memory permanent-failure log. A fault storm in a
  /// long batch run must not grow memory without bound, so the log is a
  /// ring keeping the most recent entries; older ones are dropped and
  /// counted (failuresDropped()). Values below 1 clamp to 1.
  unsigned MaxFailureLogEntries = 1024;

  //===--------------------------------------------------------------===//
  // Concurrency. Defaults keep every run fully sequential.
  //===--------------------------------------------------------------===//

  /// Worker pool for the exhaustive/random candidate fan-out; unset
  /// (the default) runs sequentially. The guided walk, the hill climb and
  /// guided+tile are sequential by construction and never use it. Fan-out
  /// requires a thread-safe Estimator (the default backend is; a
  /// FaultInjector-wrapped one is not) and assumes it is deterministic —
  /// that is what makes the fanned-out selection bit-identical to the
  /// sequential one's. BatchExplorer clears it for its jobs: they already
  /// run on the batch's pool.
  std::shared_ptr<ThreadPool> Pool;
  /// Estimate cache shared across explorers, runs, and threads. Unset:
  /// the explorer creates a private cache, i.e. per-instance memoization
  /// exactly as before.
  std::shared_ptr<EstimateCache> Cache;

  /// Answer only from completed Cache entries: the daemon's replay of a
  /// request on its event loop. A lookup takes no ticket, waits for
  /// nothing and never reaches the estimator; a hit charges its recorded
  /// attempts as usual. The first design the cache lacks counts as a
  /// miss (cacheMisses() > 0) and fails, as does every later
  /// evaluation, so the search winds down at once and its result is
  /// void. The pool is ignored.
  bool CacheOnly = false;

  //===--------------------------------------------------------------===//
  // Observability. Off by default and zero-cost while off: a disabled
  // event site is one relaxed load and a branch.
  //===--------------------------------------------------------------===//

  /// Trace recorder the engine emits decision/fan-out/phase events
  /// to; TraceRecorder::global() (disabled by default) when unset.
  /// Events are recorded only while the recorder is enabled.
  std::shared_ptr<TraceRecorder> Trace;
  /// Track label for this exploration's events (batch job name); the
  /// kernel's name when empty.
  std::string TraceLabel;
};

/// One design whose estimation permanently failed (every retry included),
/// or the condition that cut the search short (deadline or budget; then
/// Attempts is 0 and U is the design the search wanted next).
struct EvaluationFailure {
  UnrollVector U;
  unsigned Attempts = 0;
  Status Error;
  /// The full design point (equals DesignPoint(U) for unroll-only
  /// designs; carries the interchange/tile of a multi-dimensional one).
  /// Last member so the historical {U, Attempts, Error} aggregate
  /// initializations stay valid.
  DesignPoint Point;
};

/// The evaluation layer of one exploration: memoized, budgeted, traced
/// estimation of candidate designs over one source kernel.
///
/// Thread-compatibility: one service instance serves one search strategy
/// at a time (strategies call it from their driving thread); fanOut() is
/// the only entry point that puts work on other threads, and it returns
/// only once that work has finished.
class EvaluationService {
public:
  /// Normalizes \p Opts (default clock/sleep, private cache when none is
  /// shared) over \p Session's search context: saturation
  /// (Psat for Opts.Platform), the unroll space, the normalized pipeline
  /// context, and the §5.3 unroll preference order.
  EvaluationService(std::shared_ptr<const KernelSession> Session,
                    ExplorerOptions Opts);
  /// Builds a private session over a clone of \p Source.
  EvaluationService(const Kernel &Source, ExplorerOptions Opts);

  EvaluationService(const EvaluationService &) = delete;
  EvaluationService &operator=(const EvaluationService &) = delete;

  /// Evaluates one unroll vector (cached). Returns std::nullopt for
  /// non-candidate vectors and for designs whose estimation permanently
  /// failed; evaluateChecked distinguishes the two.
  std::optional<SynthesisEstimate> evaluate(const UnrollVector &U);

  /// Evaluates one unroll vector under the degradation policy: retries
  /// with capped backoff, honors the deadline, caches successes and
  /// permanent failures alike. Deadline/budget errors are global
  /// conditions and are never cached against the vector.
  Expected<SynthesisEstimate> evaluateChecked(const UnrollVector &U);

  /// The multi-dimensional generalization: evaluates one design point
  /// (unroll + optional interchange/tile) under the same degradation
  /// policy and caches. For an unroll-only point this is bit-identical
  /// to evaluateChecked(P.Unroll) — same cache key, same trace events.
  Expected<SynthesisEstimate> evaluateChecked(const DesignPoint &P);

  /// evaluate() over a design point.
  std::optional<SynthesisEstimate> evaluate(const DesignPoint &P);

  /// Estimates \p Candidates on the worker pool (ExplorerOptions::Pool)
  /// into the estimate cache and returns once every one has finished;
  /// no-op without a pool. Later evaluate() calls consume the results in
  /// their own deterministic order. Fanned-out work never charges the
  /// evaluation budget; consumption does.
  void fanOut(const std::vector<UnrollVector> &Candidates);

  /// Arms the evaluation budget: evaluateChecked fails with
  /// BudgetExhausted once \p MaxEvaluations attempts have been charged.
  /// Strategies that enumerate freely (the exhaustive baseline) never
  /// arm it.
  void beginBudget(unsigned MaxEvaluations);
  /// Disarms the budget (run teardown).
  void endBudget();

  /// Deadline/budget check, in that order; Status::ok() when neither
  /// limit is hit.
  Status checkLimits() const;

  //===--------------------------------------------------------------===//
  // Search context: deterministic per-kernel data every policy shares.
  //===--------------------------------------------------------------===//

  const Kernel &source() const { return Session->source(); }
  /// The per-kernel state this service reads (never null).
  const std::shared_ptr<const KernelSession> &session() const {
    return Session;
  }
  /// The normalized options (never-null Clock/Sleep; Estimator stays
  /// empty for the built-in backend).
  const ExplorerOptions &options() const { return Opts; }
  const UnrollSpace &space() const { return Session->space(); }
  /// The generalized space composing the unroll lattice with interchange
  /// permutations and tile sizes (shape-validity for DesignPoints).
  const DesignSpace &designSpace() const { return Session->designSpace(); }
  const SaturationInfo &saturation() const { return Sat; }
  /// Nest positions in §5.3 unroll-preference order, best first.
  const std::vector<unsigned> &preference() const {
    return Session->preference();
  }

  //===--------------------------------------------------------------===//
  // Accounting.
  //===--------------------------------------------------------------===//

  /// The estimate cache this service reads and writes (the shared one
  /// from the options, or its private one).
  const std::shared_ptr<EstimateCache> &estimateCache() const {
    return Estimates;
  }

  /// Estimator attempts spent so far (retries included).
  unsigned evaluationsUsed() const { return Used; }

  /// Shared estimate-cache lookups this service made that found a
  /// completed entry (hits) or did not (misses: it computed the design,
  /// on a fan-out worker or not, or waited on another thread's
  /// computation).
  /// Per service, so a daemon can tell a warm request from a cold one
  /// coalesced into the same batch.
  uint64_t cacheHits() const { return LookupHits.load(); }
  uint64_t cacheMisses() const { return LookupMisses.load(); }

  /// Designs whose estimation permanently failed, oldest retained entry
  /// first. The log is a bounded ring (MaxFailureLogEntries); this
  /// materializes it in chronological order.
  std::vector<EvaluationFailure> failures() const;

  /// Failure-log entries evicted by the ring bound (a fault storm
  /// overflowing MaxFailureLogEntries).
  uint64_t failuresDropped() const { return DroppedFailures; }

  /// This run's successful evaluation of \p U, if it happened; never
  /// computes. Strategies use it for final selection without spending
  /// budget.
  std::optional<SynthesisEstimate> evaluated(const UnrollVector &U) const;

  /// evaluated() over a design point.
  std::optional<SynthesisEstimate> evaluated(const DesignPoint &P) const;

  //===--------------------------------------------------------------===//
  // Observability. The service is the single emission site for
  // per-evaluation trace events; strategies call these at every branch
  // so the decision digest stays deterministic across thread counts.
  //===--------------------------------------------------------------===//

  /// Emits one "dse.decision" trace event for an evaluated design: the
  /// unroll vector, its balance/cycles/slices, why the search visited it
  /// (\p Role) and what it decided next (\p Decision). No-op while the
  /// recorder is disabled.
  void traceDecision(const UnrollVector &U, const SynthesisEstimate &E,
                     const char *Role, const char *Decision);

  /// traceDecision over a design point. For unroll-only points the event
  /// is byte-identical to the UnrollVector overload (same name, same
  /// args) so unroll-only digests are unchanged; multi-dimensional
  /// points add deterministic "perm"/"tile" args.
  void traceDecision(const DesignPoint &P, const SynthesisEstimate &E,
                     const char *Role, const char *Decision);

  /// "dse.failure" counterpart for designs whose evaluation failed (or
  /// the stop condition that cut the walk short).
  void traceFailure(const UnrollVector &U, const char *Role,
                    const Status &Err);

  /// traceFailure over a design point.
  void traceFailure(const DesignPoint &P, const char *Role,
                    const Status &Err);

  /// Final "dse.selection" event summarizing \p Res.
  void traceSelection(const ExplorationResult &Res);

  /// The recorder events land on (injected or the global one).
  TraceRecorder &recorder() const;

  /// Track label for this exploration's events (TraceLabel or the
  /// kernel's name).
  const std::string &trackLabel() const { return Track; }

  /// Raw estimation attempts currently executing, process-wide (every
  /// service, sequential walks and fan-out workers alike). Tracked
  /// only while stats recording is enabled; the MetricsSampler exposes
  /// it as the in_flight_evals gauge.
  static uint64_t inFlightEvaluations();

private:
  /// One raw estimation attempt: transform pipeline + estimator (+ the
  /// §5.4 register-cap shrink loop). Thread-safe: touches only the
  /// shared read-only PipelineContext and the options.
  /// The single instrumentation chokepoint: records eval.latency_us and
  /// the estimate.* distributions, and tracks the in-flight gauge.
  Expected<SynthesisEstimate> computeRaw(const DesignPoint &P) const;
  /// computeRaw minus instrumentation: one applyPipeline over the
  /// session's context per attempt, whatever the point's shape or the
  /// pass pipeline. Every IR node the attempt builds lands in this
  /// worker's arena.
  Expected<SynthesisEstimate> computeEstimate(const DesignPoint &P) const;
  /// The per-point transform configuration: BaseTransforms plus the
  /// point's unroll vector (and interchange/tile when set) plus the
  /// platform's memory count.
  TransformOptions transformOptionsFor(const DesignPoint &P) const;
  /// The estimator seam: invocation timing, the hang watchdog, the
  /// dse.cancel trace event. The built-in backend estimates \p K without
  /// re-verifying it: the pipeline's verification pass already did.
  Expected<SynthesisEstimate> invokeBackend(const Kernel &K,
                                            const DesignPoint &P) const;
  std::string cacheKey(const DesignPoint &P) const;
  /// Consumes a completed shared-cache entry: charges its attempts and
  /// records it in this run's success or failure map.
  Expected<SynthesisEstimate> consumeCached(const DesignPoint &P,
                                            const EstimateCache::Result &R);
  /// evaluateChecked's shared-cache step under ExplorerOptions::CacheOnly.
  Expected<SynthesisEstimate> evaluateCached(const DesignPoint &P);
  /// Appends to the bounded failure ring, evicting (and counting) the
  /// oldest entry when full.
  void logFailure(EvaluationFailure F);
  /// Emits one "dse.breaker" trace event for a circuit transition or
  /// admission decision ("opened", "reopened", "closed", "probe",
  /// "fail-fast").
  void traceBreaker(const char *What);

  std::shared_ptr<const KernelSession> Session; // never null
  ExplorerOptions Opts;
  SaturationInfo Sat; // the session's, with Psat for Opts.Platform
  std::shared_ptr<EstimateCache> Estimates; // never null
  std::map<DesignPoint, SynthesisEstimate> Cache; // this run's successes
  std::map<DesignPoint, Status> FailCache; // this run's permanent failures
  /// Bounded failure ring: oldest entry at FailLogStart once the ring
  /// wrapped; failures() linearizes it.
  std::vector<EvaluationFailure> FailLog;
  size_t FailLogStart = 0;
  uint64_t DroppedFailures = 0;
  std::string Track; // trace track label (TraceLabel or kernel name)
  /// designCacheKeyPrefix() of this service: unroll-only points append
  /// their unroll vector to it.
  std::string UnrollKeyPrefix;
  /// Decision-event sequence number within this exploration; assigned by
  /// the deterministic walk, so it is identical across thread counts.
  uint64_t DecisionOrdinal = 0;
  /// How the shared cache served the walk's most recent evaluation
  /// ("computed", "hit", "wait", ...): run-variant trace detail.
  const char *LastCacheOutcome = "none";
  unsigned Used = 0;
  /// Shared-cache lookup outcomes (cacheHits()/cacheMisses()); misses
  /// are also counted by fan-out workers.
  std::atomic<uint64_t> LookupHits{0};
  std::atomic<uint64_t> LookupMisses{0};
  /// CacheOnly: the failure every evaluation returns once a design was
  /// missing from the cache (ok until then).
  Status CacheOnlyMiss = Status::ok();
  /// MaxEvaluations is enforced only between beginBudget()/endBudget();
  /// the exhaustive and random baselines enumerate freely.
  std::optional<unsigned> BudgetCap;
  double StartSeconds = 0;
};

} // namespace defacto

#endif // DEFACTO_CORE_EVALUATIONSERVICE_H
