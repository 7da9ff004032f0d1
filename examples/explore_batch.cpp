//===- explore_batch.cpp - Multi-kernel DSE driver ------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Explores many kernels concurrently on one worker pool with one shared
/// estimate cache — the deployment shape of §2.4's application class,
/// where a whole image-processing pipeline of kernels targets one board:
///
///   explore_batch [--threads N] [--strategy NAME] [--both-platforms]
///                 [--extended] [--kernels fir,mm,...] [--repeat N]
///                 [--pipeline=p1,p2,...] [--trace-out=PATH]
///                 [--stats] [--stats-out=PATH] [--explain]
///                 [--journal=PATH] [--resume] [--watchdog=SECONDS]
///                 [--breaker-threshold=N] [--breaker-cooldown=SECONDS]
///                 [--metrics-jsonl=PATH] [--metrics-interval=SECONDS]
///                 [--metrics-prom=PATH]
///
/// --threads sets how many jobs run at once; it defaults to the CPUs the
/// process may run on (availableCores()), capped at the job count, and a
/// lone job runs on the main thread. The result table does not depend on
/// it.
///
/// --strategy selects any StrategyRegistry search ("guided",
/// "exhaustive", "random", "hillclimb", "portfolio", "guided+tile", or
/// one a caller registered); an unknown name lists the registry and
/// exits.
///
/// --pipeline overrides the transformation pass pipeline for every job
/// with a comma-separated PassRegistry list (e.g.
/// "normalize,unroll,fold"); an unknown pass name lists the registry and
/// exits.
///
/// Prints one row per job (strategy, selected design, speedup,
/// evaluations) plus the shared cache's hit statistics. --repeat queues
/// each job twice to demonstrate cross-job cache reuse: the second copy
/// costs zero estimator calls. --trace-out writes a Chrome trace_event
/// file of every search decision (one track per job; load in
/// chrome://tracing or Perfetto), --stats prints the counter and
/// histogram registries (phase spans included), and --explain renders the full exploration report per
/// job (per-strategy sections for portfolio runs).
///
/// Crash safety: --journal makes every completed evaluation durable
/// (JSONL, write-then-rename) and --resume replays an interrupted run's
/// journal into the shared cache, reproducing finished jobs without
/// re-invoking the backend. --watchdog arms the per-evaluation hang
/// watchdog; --breaker-threshold enables the per-backend circuit breaker
/// (--breaker-cooldown tunes its open interval).
///
/// Live telemetry (docs/OBSERVABILITY.md "Live metrics"): --metrics-jsonl
/// appends one JSONL snapshot of every counter, histogram (phase spans
/// included), and progress gauge per interval (write-then-rename, so
/// `defacto_monitor` can tail it live), --metrics-interval sets the
/// sampling period in seconds (default 0.25), and --metrics-prom
/// maintains an OpenMetrics/Prometheus text exposition of the latest
/// snapshot. The metrics flags are spelled as defacto_served spells them.
/// --stats-out writes the final counters + histograms as one JSON
/// document.
///
/// Exit codes: 0 all jobs healthy; 3 batch completed but at least one
/// job degraded (fault/deadline/budget/breaker); 1 runtime failure
/// (journal or trace I/O); 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/CircuitBreaker.h"
#include "defacto/Core/EvaluationJournal.h"
#include "defacto/Core/ExplorationReport.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Transforms/PassRegistry.h"
#include "defacto/Support/CommandLine.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/MetricsSampler.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Table.h"
#include "defacto/Support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace defacto;

int main(int Argc, char **Argv) {
  cl::ArgList Args(Argc, Argv);
  BatchOptions Batch;
  Batch.NumThreads =
      Args.consumeUnsigned("--threads").value_or(availableCores());
  std::string Strategy = Args.consumeValue("--strategy").value_or("guided");
  bool BothPlatforms = Args.consumeFlag("--both-platforms");
  bool Extended = Args.consumeFlag("--extended");
  bool Stats = Args.consumeFlag("--stats");
  std::string StatsOut = Args.consumeValue("--stats-out").value_or("");
  bool Explain = Args.consumeFlag("--explain");
  std::string MetricsJsonl = Args.consumeValue("--metrics-jsonl").value_or("");
  std::string MetricsProm = Args.consumeValue("--metrics-prom").value_or("");
  double MetricsInterval = 0.25;
  if (std::optional<std::string> I = Args.consumeValue("--metrics-interval"))
    MetricsInterval = std::strtod(I->c_str(), nullptr);
  std::string TraceOut = Args.consumeValue("--trace-out").value_or("");
  unsigned Repeat = Args.consumeUnsigned("--repeat").value_or(1);
  std::string Pipeline = Args.consumeValue("--pipeline").value_or("");
  std::vector<std::string> Names = Args.consumeList("--kernels");
  std::string JournalPath = Args.consumeValue("--journal").value_or("");
  bool Resume = Args.consumeFlag("--resume");
  double WatchdogSeconds = 0;
  if (std::optional<std::string> W = Args.consumeValue("--watchdog"))
    WatchdogSeconds = std::strtod(W->c_str(), nullptr);
  unsigned BreakerThreshold =
      Args.consumeUnsigned("--breaker-threshold").value_or(0);
  double BreakerCooldown = 30.0;
  if (std::optional<std::string> C = Args.consumeValue("--breaker-cooldown"))
    BreakerCooldown = std::strtod(C->c_str(), nullptr);

  if (!Args.empty()) {
    std::fprintf(stderr,
                 "unknown argument '%s'\n"
                 "usage: explore_batch [--threads N] [--strategy NAME] "
                 "[--both-platforms] [--extended] "
                 "[--kernels a,b,...] [--repeat N] [--pipeline=p1,p2,...] "
                 "[--trace-out=PATH] [--stats] [--stats-out=PATH] "
                 "[--explain] [--journal=PATH] [--resume] "
                 "[--watchdog=SECONDS] [--breaker-threshold=N] "
                 "[--breaker-cooldown=SECONDS] [--metrics-jsonl=PATH] "
                 "[--metrics-interval=SECONDS] [--metrics-prom=PATH]\n",
                 Args.rest().front().c_str());
    return 2;
  }
  if (Resume && JournalPath.empty()) {
    std::fprintf(stderr, "--resume requires --journal=PATH\n");
    return 2;
  }
  if (WatchdogSeconds < 0) {
    std::fprintf(stderr, "--watchdog must be non-negative\n");
    return 2;
  }
  if (!StrategyRegistry::instance().contains(Strategy)) {
    std::fprintf(stderr, "unknown strategy '%s'; registered strategies:\n%s",
                 Strategy.c_str(),
                 StrategyRegistry::instance().describe().c_str());
    return 2;
  }
  if (!Pipeline.empty()) {
    if (Expected<std::vector<std::string>> Parsed =
            parsePipelineText(Pipeline);
        !Parsed) {
      std::fprintf(stderr, "bad --pipeline: %s\n",
                   Parsed.status().message().c_str());
      return 2;
    }
  }

  bool Metrics = !MetricsJsonl.empty() || !MetricsProm.empty();
  // --explain renders the per-pass pipeline timing table, which needs the
  // phase spans recording.
  if (Stats || !StatsOut.empty() || Metrics || Explain)
    StatRegistry::instance().setEnabled(true);
  if (!TraceOut.empty()) {
    Batch.Trace = std::make_shared<TraceRecorder>();
    Batch.Trace->setEnabled(true);
  }
  if (BreakerThreshold > 0) {
    CircuitBreakerOptions BreakerOpts;
    BreakerOpts.FailureThreshold = BreakerThreshold;
    BreakerOpts.CooldownSeconds = BreakerCooldown;
    Batch.Breakers = std::make_shared<CircuitBreakerRegistry>(BreakerOpts);
  }
  unsigned ResumedEvals = 0;
  size_t ResumedJobs = 0;
  if (!JournalPath.empty()) {
    Batch.Journal = std::make_shared<EvaluationJournal>(JournalPath);
    if (Resume) {
      Expected<EvaluationJournal::Contents> Loaded =
          EvaluationJournal::load(JournalPath);
      if (!Loaded) {
        std::fprintf(stderr, "cannot resume: %s\n",
                     Loaded.status().toString().c_str());
        return 1;
      }
      if (Loaded->SkippedLines > 0)
        std::fprintf(stderr,
                     "journal %s: skipped %u corrupt line(s) "
                     "(torn write from the interrupted run)\n",
                     JournalPath.c_str(), Loaded->SkippedLines);
      Batch.Journal->adopt(*Loaded);
      if (!Batch.Cache)
        Batch.Cache = std::make_shared<EstimateCache>();
      ResumedEvals = Batch.Journal->replayInto(*Batch.Cache);
      ResumedJobs = Batch.Journal->numJobs();
    }
  }

  if (Names.empty()) {
    for (const KernelSpec &Spec : paperKernels())
      Names.push_back(Spec.Name);
    if (Extended)
      for (const KernelSpec &Spec : extendedKernels())
        Names.push_back(Spec.Name);
  }

  std::vector<TargetPlatform> Platforms{TargetPlatform::wildstarPipelined()};
  if (BothPlatforms)
    Platforms.push_back(TargetPlatform::wildstarNonPipelined());

  std::vector<BatchJob> Jobs;
  for (unsigned Round = 0; Round != std::max(1u, Repeat); ++Round)
    for (const std::string &Name : Names) {
      if (!findKernelSpec(Name)) {
        std::fprintf(stderr, "unknown kernel '%s'\n", Name.c_str());
        return 2;
      }
      for (const TargetPlatform &Platform : Platforms) {
        ExplorerOptions Opts;
        Opts.Platform = Platform;
        Opts.WatchdogSeconds = WatchdogSeconds;
        Opts.BaseTransforms.Pipeline = Pipeline;
        std::string Label = Name + " @ " + Platform.Name;
        if (Round > 0)
          Label += " (repeat)";
        Jobs.emplace_back(Label, buildKernel(Name), std::move(Opts), Strategy);
      }
    }

  // The metrics gauges watch the pool's queue, so build the pool runAll()
  // would, by the same sizing rule.
  unsigned Threads = batchThreads(Batch.NumThreads, Jobs.size());
  if (Metrics && Threads > 1)
    Batch.Pool = std::make_shared<ThreadPool>(Threads);

  BatchExplorer Engine(Batch);
  for (BatchJob &Job : Jobs)
    Engine.addJob(std::move(Job));

  std::printf("exploring %u job(s) on %u thread(s), %s search\n\n",
              Engine.numJobs(), Threads, Strategy.c_str());
  if (Resume)
    std::printf("resumed from journal %s: %u evaluation(s) replayed, "
                "%zu finished job(s) on record\n\n",
                JournalPath.c_str(), ResumedEvals, ResumedJobs);

  std::unique_ptr<MetricsSampler> Sampler;
  if (Metrics) {
    MetricsSamplerOptions SamplerOpts;
    SamplerOpts.IntervalSeconds = MetricsInterval;
    SamplerOpts.JsonlPath = MetricsJsonl;
    SamplerOpts.PromPath = MetricsProm;
    Sampler = std::make_unique<MetricsSampler>(std::move(SamplerOpts));
    Sampler->setGauge("jobs_total", [&Engine] {
      return static_cast<double>(Engine.jobsQueued());
    });
    Sampler->setGauge("jobs_done", [&Engine] {
      return static_cast<double>(Engine.jobsCompleted());
    });
    Sampler->setGauge("in_flight_evals", [] {
      return static_cast<double>(EvaluationService::inFlightEvaluations());
    });
    Sampler->setGauge("cache_designs", [&Engine] {
      return static_cast<double>(Engine.estimateCache()->size());
    });
    if (Batch.Pool)
      Sampler->setGauge("queue_depth", [Pool = Batch.Pool] {
        return static_cast<double>(Pool->queueDepth());
      });
    if (Batch.Breakers)
      Sampler->setGauge("breakers_open", [Breakers = Batch.Breakers] {
        double Open = 0;
        for (const auto &[Key, Snap] : Breakers->snapshotAll())
          if (Snap.Current != CircuitBreakerRegistry::State::Closed)
            ++Open;
        return Open;
      });
    Sampler->start();
  }

  std::vector<BatchResult> Results = Engine.runAll();

  if (Sampler) {
    // Final sample after the last job: totals now exactly match the
    // end-of-run registry and cache stats below.
    Sampler->stop();
    if (Status MetricsIo = Sampler->ioStatus(); !MetricsIo.isOk()) {
      std::fprintf(stderr, "metrics output failed: %s\n",
                   MetricsIo.toString().c_str());
      return 1;
    }
    std::printf("metrics: %llu sample(s)%s%s%s%s\n\n",
                static_cast<unsigned long long>(Sampler->samples()),
                MetricsJsonl.empty() ? "" : " -> ",
                MetricsJsonl.c_str(),
                MetricsProm.empty() ? "" : ", prom -> ",
                MetricsProm.c_str());
  }

  Table Out({"job", "strategy", "selected", "cycles", "slices", "speedup",
             "evals", "searched", "flags"});
  for (const BatchResult &R : Results) {
    const ExplorationResult &E = R.Result;
    std::string Flags;
    if (!E.SelectedFits)
      Flags += "no-fit ";
    if (E.Degraded)
      Flags += "degraded";
    if (E.DroppedFailures > 0)
      Flags += " (+" + std::to_string(E.DroppedFailures) +
               " failures dropped)";
    std::string Selected = E.SelectedPoint.isUnrollOnly()
                               ? unrollVectorToString(E.Selected)
                               : E.SelectedPoint.toString();
    Out.addRow({R.Name, E.Strategy, Selected,
                formatWithCommas(static_cast<int64_t>(
                    E.SelectedEstimate.Cycles)),
                formatDouble(E.SelectedEstimate.Slices, 0),
                formatDouble(E.speedup(), 2) + "x",
                std::to_string(E.EvaluationsUsed),
                formatDouble(100.0 * E.fractionSearched(), 1) + "%",
                Flags});
  }
  std::printf("%s\n", Out.toString().c_str());

  EstimateCache::Stats CacheStats = Engine.estimateCache()->stats();
  std::printf("shared cache: %llu lookups, %llu hits (%.1f%% hit rate), "
              "%llu negative, %llu waits, %zu designs cached\n",
              static_cast<unsigned long long>(CacheStats.Lookups),
              static_cast<unsigned long long>(CacheStats.Hits),
              100.0 * CacheStats.hitRate(),
              static_cast<unsigned long long>(CacheStats.NegativeHits),
              static_cast<unsigned long long>(CacheStats.Waits),
              Engine.estimateCache()->size());

  if (Explain) {
    ReportOptions Report;
    Report.ShowPassTimings = true;
    for (const BatchResult &R : Results)
      std::printf("\n%s",
                  renderExplorationReport(R.Result, R.Name, Report).c_str());
  }

  if (Stats) {
    std::printf("\n%s", StatRegistry::instance().toText().c_str());
    std::printf("%s", HistogramRegistry::global().toText().c_str());
  }

  if (!StatsOut.empty()) {
    if (!cl::writeStatsFile(StatsOut))
      return 1;
    std::printf("wrote stats to %s\n", StatsOut.c_str());
  }

  if (!TraceOut.empty()) {
    std::ofstream TraceFile(TraceOut);
    if (!TraceFile) {
      std::fprintf(stderr, "failed to open trace output '%s'\n",
                   TraceOut.c_str());
      return 1;
    }
    TraceFile << Batch.Trace->toChromeTrace();
    std::printf("wrote %zu trace events to %s (load in chrome://tracing "
                "or ui.perfetto.dev)\n",
                Batch.Trace->eventCount(), TraceOut.c_str());
  }

  if (Batch.Journal) {
    // One final flush so a run with zero new evaluations (a full resume)
    // still leaves a complete journal behind.
    if (Status Flushed = Batch.Journal->flush(); !Flushed.isOk()) {
      std::fprintf(stderr, "journal flush failed: %s\n",
                   Flushed.toString().c_str());
      return 1;
    }
    std::printf("journal: %s (%zu evaluation(s), %zu job record(s))\n",
                Batch.Journal->path().c_str(),
                Batch.Journal->numEvaluations(), Batch.Journal->numJobs());
  }

  bool AnyDegraded = false;
  for (const BatchResult &R : Results)
    AnyDegraded |= R.Result.Degraded || !R.Result.SelectedFits;
  // 0: every job converged healthy. 3: the batch completed but degraded
  // (faults, deadline/budget stops, open breakers, or a no-fit device) —
  // results are usable but a supervisor should look. 1/2 above: runtime
  // and usage failures.
  return AnyDegraded ? 3 : 0;
}
