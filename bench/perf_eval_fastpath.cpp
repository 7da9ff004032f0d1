//===- perf_eval_fastpath.cpp - Fast-path evaluation benchmarks -----------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measures the evaluation route (arena-allocated IR clones,
/// transform-stage memoization, memoized estimation — see
/// docs/PERFORMANCE.md) on the paper's Figure 6 matrix-multiply kernel,
/// exhaustive strategy, default unroll caps. Two configurations per
/// thread count:
///
///   on-cold    an empty TransformStageCache, so the sweep pays every
///              stage and candidate build once;
///   on         a warm shared TransformStageCache, the steady state of
///              batch runs that revisit a kernel (multiple platforms,
///              --repeat, portfolio strategies) — candidates are served
///              from the cache's finished-kernel level and evaluation
///              cost is the estimator itself.
///
/// (The mode names predate the removal of the second, unstaged route;
/// they are kept so bench_diff compares reports across versions.)
///
/// Every sweep uses a fresh EstimateCache, so each of the 90 candidates
/// is genuinely evaluated every time: the numbers are evaluations per
/// second of the engine, never cache replay of estimates.
///
/// The run is also a parity gate: the decision digest must be identical
/// at 1 and 8 threads and after a warm-cache sweep, and the winner must
/// equal the committed golden answer (tests/golden/paper_answers.golden).
/// The process exits nonzero only when parity fails — never on a slow
/// machine — so CI can run it as a smoke test (--quick caps the
/// repetitions).
///
/// Writes BENCH_eval.json (override with --json=PATH): per-sweep
/// evaluations/sec, the parity verdicts, the cold-sweep latency
/// percentiles and the per-phase span totals (pipeline.clone,
/// pipeline.pass.*, estimator.dfg, scheduler.schedule, ...).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "defacto/Core/Explorer.h"
#include "defacto/Core/TransformStageCache.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace defacto;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepOutcome {
  double Seconds = 0;
  unsigned Evaluations = 0;
  UnrollVector Selected;
  SynthesisEstimate Estimate;
  std::vector<std::string> Digest;
};

/// One exhaustive sweep with a fresh estimate cache over \p Stages.
SweepOutcome runSweep(const Kernel &K, unsigned Threads,
                      std::shared_ptr<ThreadPool> Pool,
                      std::shared_ptr<TransformStageCache> Stages,
                      bool WantDigest = false) {
  ExplorerOptions Opts;
  Opts.NumThreads = Threads;
  if (Threads > 1)
    Opts.Pool = Pool;
  Opts.Cache = std::make_shared<EstimateCache>();
  Opts.StageCache = std::move(Stages);

  TraceRecorder &R = TraceRecorder::global();
  if (WantDigest) {
    R.clear();
    R.setEnabled(true);
  }
  double T0 = now();
  ExplorationResult Res = exploreExhaustive(K, Opts);
  SweepOutcome Out;
  Out.Seconds = now() - T0;
  Out.Evaluations = Res.EvaluationsUsed;
  Out.Selected = Res.Selected;
  Out.Estimate = Res.SelectedEstimate;
  if (WantDigest) {
    Out.Digest = R.decisionDigest();
    R.setEnabled(false);
    R.clear();
  }
  return Out;
}

/// The winner part of a paper_answers.golden header line: design
/// point, cycles, hexfloat slices and balance, evaluations spent.
std::string winnerFields(const SweepOutcome &O) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                " winner=[%s] cycles=%llu slices=%a balance=%a evals=%u ",
                unrollVectorToString(O.Selected).c_str(),
                static_cast<unsigned long long>(O.Estimate.Cycles),
                O.Estimate.Slices, O.Estimate.Balance, O.Evaluations);
  return Buf;
}

/// The golden header line of the MM exhaustive sweep on the default
/// platform; empty when the file or the line is missing.
std::string goldenMMLine() {
  std::ifstream In(DEFACTO_GOLDEN_ANSWERS);
  const std::string Key =
      "MM " + TargetPlatform::wildstarPipelined().Name + " exhaustive winner=";
  for (std::string Line; std::getline(In, Line);)
    if (Line.compare(0, Key.size(), Key) == 0)
      return Line;
  return "";
}

struct SweepRow {
  std::string Mode;
  unsigned Threads = 0;
  unsigned Repetitions = 0;
  double BestSeconds = 0;
  unsigned Evaluations = 0;

  double evalsPerSec() const {
    return BestSeconds > 0 ? Evaluations / BestSeconds : 0;
  }
};

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bench::ObservabilityFlags Obs = bench::parseObservabilityFlags(argc, argv);
  // The timed sweeps run with recording off; the instrumented phase-split
  // passes below enable it explicitly.
  StatRegistry::instance().setEnabled(false);
  TraceRecorder::global().setEnabled(false);

  std::string JsonPath = "BENCH_eval.json";
  bool Quick = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0) {
      JsonPath = argv[I] + 7;
    } else if (std::strcmp(argv[I], "--quick") == 0) {
      Quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: perf_eval_fastpath [--quick] [--json=PATH] "
                   "[--stats] [--trace-out=PATH]\n");
      return 2;
    }
  }

  const Kernel K = buildKernel("MM");
  const unsigned Reps = Quick ? 2 : 5;
  const std::vector<unsigned> ThreadCounts = {1, 4, 8};
  auto Pool = std::make_shared<ThreadPool>(8);

  //===------------------------------------------------------------===//
  // Timed sweeps.
  //===------------------------------------------------------------===//
  std::vector<SweepRow> Rows;
  for (unsigned T : ThreadCounts) {
    {
      // Cold: a fresh stage cache per repetition.
      SweepRow Row{"on-cold", T, Reps};
      for (unsigned I = 0; I != Reps; ++I) {
        SweepOutcome O = runSweep(K, T, Pool,
                                  std::make_shared<TransformStageCache>());
        if (I == 0 || O.Seconds < Row.BestSeconds)
          Row.BestSeconds = O.Seconds;
        Row.Evaluations = O.Evaluations;
      }
      Rows.push_back(Row);
    }
    {
      // Steady state: one shared stage cache, warmed by a discarded
      // first sweep (batch-run usage, where jobs revisit a kernel).
      SweepRow Row{"on", T, Reps};
      auto Stages = std::make_shared<TransformStageCache>();
      runSweep(K, T, Pool, Stages); // warm-up
      for (unsigned I = 0; I != Reps; ++I) {
        SweepOutcome O = runSweep(K, T, Pool, Stages);
        if (I == 0 || O.Seconds < Row.BestSeconds)
          Row.BestSeconds = O.Seconds;
        Row.Evaluations = O.Evaluations;
      }
      Rows.push_back(Row);
    }
  }

  //===------------------------------------------------------------===//
  // Parity gate.
  //===------------------------------------------------------------===//
  bool ParityOk = true;
  auto check = [&ParityOk](bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "PARITY VIOLATION: %s\n", What);
      ParityOk = false;
    }
    return Cond;
  };

  bool ThreadsMatch = false, SteadyMatch = false, GoldenMatch = false;
  {
    SweepOutcome Cold1 =
        runSweep(K, 1, Pool, std::make_shared<TransformStageCache>(),
                 /*WantDigest=*/true);
    SweepOutcome Cold8 =
        runSweep(K, 8, Pool, std::make_shared<TransformStageCache>(),
                 /*WantDigest=*/true);
    ThreadsMatch = !Cold1.Digest.empty() && Cold1.Digest == Cold8.Digest;
    check(ThreadsMatch, "decision digest differs at 1 vs 8 threads");

    // Steady state must stay bit-identical too: candidates served from
    // the finished-kernel cache level must reproduce the cold digest.
    auto Stages = std::make_shared<TransformStageCache>();
    runSweep(K, 1, Pool, Stages);
    SweepOutcome Warm = runSweep(K, 1, Pool, Stages, /*WantDigest=*/true);
    SteadyMatch = Cold1.Digest == Warm.Digest;
    check(SteadyMatch, "warm-cache sweep diverged from the cold sweep");

    std::string Golden = goldenMMLine();
    GoldenMatch = !Golden.empty() &&
                  Golden.find(winnerFields(Cold1)) != std::string::npos;
    check(GoldenMatch, "winner differs from the golden answer");
  }

  //===------------------------------------------------------------===//
  // Instrumented phase-split pass (cold), outside the timed
  // measurements. The same pass feeds the per-evaluation latency
  // percentiles from the eval.latency_us histogram.
  //===------------------------------------------------------------===//
  struct LatencyPercentiles {
    uint64_t Count = 0, P50 = 0, P95 = 0, P99 = 0, Max = 0;
  };
  std::string Phases;
  LatencyPercentiles Lat;
  {
    StatRegistry::instance().setEnabled(true);
    HistogramRegistry::global().reset();
    runSweep(K, 1, Pool, std::make_shared<TransformStageCache>());
    Phases = bench::phaseTimingsJson();
    for (const HistogramSnapshot &S : HistogramRegistry::global().snapshot())
      if (S.Name == "eval.latency_us") {
        Lat.Count = S.Count;
        Lat.P50 = S.quantile(0.50);
        Lat.P95 = S.quantile(0.95);
        Lat.P99 = S.quantile(0.99);
        Lat.Max = S.Max;
      }
    HistogramRegistry::global().reset();
    StatRegistry::instance().setEnabled(false);
  }

  //===------------------------------------------------------------===//
  // Report.
  //===------------------------------------------------------------===//
  std::printf("%-8s %8s %6s %14s %14s\n", "mode", "threads", "reps",
              "best_wall_ms", "evals/sec");
  for (const SweepRow &R : Rows)
    std::printf("%-8s %8u %6u %14.2f %14.1f\n", R.Mode.c_str(), R.Threads,
                R.Repetitions, R.BestSeconds * 1e3, R.evalsPerSec());
  std::printf("parity: %s\n", ParityOk ? "OK" : "VIOLATED");
  std::printf("eval latency (cold) p50 %llu us, p95 %llu us, p99 %llu us, "
              "max %llu us (%llu evaluations)\n",
              static_cast<unsigned long long>(Lat.P50),
              static_cast<unsigned long long>(Lat.P95),
              static_cast<unsigned long long>(Lat.P99),
              static_cast<unsigned long long>(Lat.Max),
              static_cast<unsigned long long>(Lat.Count));

  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"kernel\": \"MM\",\n  \"strategy\": \"exhaustive\",\n"
     << "  \"platform\": \"wildstar-pipelined\",\n"
     << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
  OS << "  \"sweeps\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SweepRow &R = Rows[I];
    OS << "    {\"mode\": \"" << jsonEscape(R.Mode)
       << "\", \"threads\": " << R.Threads
       << ", \"repetitions\": " << R.Repetitions
       << ", \"best_wall_seconds\": " << R.BestSeconds
       << ", \"evaluations\": " << R.Evaluations
       << ", \"evals_per_sec\": " << R.evalsPerSec() << "}"
       << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  OS << "  ],\n";
  OS << "  \"parity\": {\"digest_match_1_vs_8threads\": "
     << (ThreadsMatch ? "true" : "false")
     << ", \"steady_state_match\": " << (SteadyMatch ? "true" : "false")
     << ", \"golden_winner_match\": " << (GoldenMatch ? "true" : "false")
     << "},\n";
  OS << "  \"latency_percentiles\": {\"histogram\": \"eval.latency_us\", "
     << "\"threads\": 1, \"on\": {\"count\": " << Lat.Count
     << ", \"p50_us\": " << Lat.P50 << ", \"p95_us\": " << Lat.P95
     << ", \"p99_us\": " << Lat.P99 << ", \"max_us\": " << Lat.Max
     << "}},\n";
  OS << "  \"phase_timings_ms\": {\"on\": " << Phases << "}\n";
  OS << "}\n";
  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << OS.str();
  }

  if (!bench::finishObservability(Obs))
    return 1;
  return ParityOk ? 0 : 1;
}
