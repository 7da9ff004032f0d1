//===- perf_eval.cpp - Evaluation engine benchmarks -----------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measures the evaluation engine (arena-allocated IR clones, one
/// transform pipeline per candidate, memoized estimation — see
/// docs/PERFORMANCE.md) in three modes:
///
///   on-cold    the paper's Figure 6 matrix-multiply kernel, exhaustive
///              strategy, default unroll caps: every candidate is
///              transformed and estimated once;
///   guided     the paper's guided walk over its five kernels on the
///              default platform, one after the other (the paper's
///              "less than 5 minutes per kernel" timing);
///   batch      one BatchExplorer run of guided+tile over every named
///              kernel on both platforms (the explore_batch shape).
///
/// (The on-cold name predates the removal of the transform-stage cache;
/// it is kept so bench_diff compares reports across versions.)
///
/// on-cold and batch run at 1, 4 and 8 threads, each thread count on a
/// pool of exactly that many workers; guided runs at 1, because the walk
/// is sequential. Every run uses fresh estimate caches, so each
/// evaluation is genuinely computed: the numbers are evaluations per
/// second of the engine, never cache replay of estimates. Rows above one
/// thread carry their parallel efficiency, evals/sec(T) divided by
/// T x evals/sec(1) of the same mode. Every row reports the wall time of
/// its best repetition and the process CPU time of that repetition: a
/// pooled row near its 1-thread wall time with CPU time near the wall
/// time ran serialized, one with CPU time near T x the wall time ran in
/// parallel.
///
/// The run is also a parity gate: the MM decision digest must be
/// identical at 1 and 8 threads, and the MM exhaustive winner and every
/// guided winner must equal the committed golden answers
/// (tests/golden/paper_answers.golden). The process exits
/// nonzero only when parity fails — never on a slow machine — so CI can
/// run it as a smoke test (--quick caps the repetitions).
///
/// Writes BENCH_eval.json (override with --json=PATH): per-row
/// evaluations/sec and CPU time, the parity verdicts, the cold MM sweep's
/// latency percentiles and its per-phase span totals (pipeline.clone,
/// pipeline.pass.*, estimator.dfg, scheduler.schedule, ...).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/Explorer.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Stats.h"
#include "defacto/Support/Trace.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <fstream>
#include <map>
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

/// The winner part of a paper_answers.golden header line: design
/// point, cycles, hexfloat slices and balance, evaluations spent.
std::string winnerFields(const ExplorationResult &R) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                " winner=[%s] cycles=%llu slices=%a balance=%a evals=%u ",
                unrollVectorToString(R.Selected).c_str(),
                static_cast<unsigned long long>(R.SelectedEstimate.Cycles),
                R.SelectedEstimate.Slices, R.SelectedEstimate.Balance,
                R.EvaluationsUsed);
  return Buf;
}

/// The golden header line of \p Kernel under \p Strategy on the default
/// platform; empty when the file or the line is missing.
std::string goldenLine(const std::string &Kernel,
                       const std::string &Strategy) {
  std::ifstream In(DEFACTO_GOLDEN_ANSWERS);
  const std::string Key = Kernel + " " +
                          TargetPlatform::wildstarPipelined().Name + " " +
                          Strategy + " winner=";
  for (std::string Line; std::getline(In, Line);)
    if (Line.compare(0, Key.size(), Key) == 0)
      return Line;
  return "";
}

/// Process CPU time, every thread included.
double cpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// One timed run of a mode.
struct Outcome {
  double Seconds = 0;
  unsigned Evaluations = 0;
  /// winnerFields() per explored kernel, in run order.
  std::vector<std::string> Winners;
  std::vector<std::string> Digest;
};

/// One MM exhaustive sweep with a fresh estimate cache, fanned out on
/// \p Pool when one is given.
Outcome runSweep(const Kernel &K, std::shared_ptr<ThreadPool> Pool,
                 bool WantDigest = false) {
  ExplorerOptions Opts;
  Opts.Pool = std::move(Pool);
  Opts.Cache = std::make_shared<EstimateCache>();

  TraceRecorder &R = TraceRecorder::global();
  if (WantDigest) {
    R.clear();
    R.setEnabled(true);
  }
  double T0 = now();
  ExplorationResult Res = exploreExhaustive(K, Opts);
  Outcome Out;
  Out.Seconds = now() - T0;
  Out.Evaluations = Res.EvaluationsUsed;
  Out.Winners.push_back(winnerFields(Res));
  if (WantDigest) {
    Out.Digest = R.decisionDigest();
    R.setEnabled(false);
    R.clear();
  }
  return Out;
}

/// The guided walk over \p Kernels on the default platform, one after
/// the other, each over fresh caches.
Outcome runGuided(const std::vector<Kernel> &Kernels) {
  Outcome Out;
  for (const Kernel &K : Kernels) {
    double T0 = now();
    Expected<ExplorationResult> Res =
        exploreWithStrategy(K, ExplorerOptions{}, "guided");
    Out.Seconds += now() - T0;
    Out.Evaluations += Res->EvaluationsUsed;
    Out.Winners.push_back(winnerFields(*Res));
  }
  return Out;
}

/// One guided+tile batch over \p Kernels on both platforms with fresh
/// caches: batchThreads(Threads, jobs) workers, drawn from \p Pool.
Outcome runBatch(const std::vector<Kernel> &Kernels, unsigned Threads,
                 std::shared_ptr<ThreadPool> Pool) {
  BatchOptions Batch;
  Batch.NumThreads = Threads;
  Batch.Pool = std::move(Pool);
  BatchExplorer Engine(Batch);
  for (const Kernel &K : Kernels)
    for (const TargetPlatform &Platform :
         {TargetPlatform::wildstarPipelined(),
          TargetPlatform::wildstarNonPipelined()}) {
      ExplorerOptions Opts;
      Opts.Platform = Platform;
      Engine.addJob(K, std::move(Opts), "guided+tile");
    }
  double T0 = now();
  std::vector<BatchResult> Results = Engine.runAll();
  Outcome Out;
  Out.Seconds = now() - T0;
  for (const BatchResult &R : Results)
    Out.Evaluations += R.Result.EvaluationsUsed;
  return Out;
}

struct SweepRow {
  std::string Mode;
  unsigned Threads = 0;
  unsigned Repetitions = 0;
  double BestSeconds = 0;
  /// Process CPU time of the best repetition.
  double BestCpuSeconds = 0;
  unsigned Evaluations = 0;
  /// evals/sec over Threads x the same mode's 1-thread evals/sec; 0 at
  /// one thread.
  double Efficiency = 0;

  double evalsPerSec() const {
    return BestSeconds > 0 ? Evaluations / BestSeconds : 0;
  }
};

/// The best of \p Reps runs of \p Run.
template <typename Fn>
SweepRow measure(const char *Mode, unsigned Threads, unsigned Reps, Fn Run) {
  SweepRow Row{Mode, Threads, Reps};
  for (unsigned I = 0; I != Reps; ++I) {
    double Cpu0 = cpuSeconds();
    Outcome O = Run();
    double Cpu = cpuSeconds() - Cpu0;
    if (I == 0 || O.Seconds < Row.BestSeconds) {
      Row.BestSeconds = O.Seconds;
      Row.BestCpuSeconds = Cpu;
    }
    Row.Evaluations = O.Evaluations;
  }
  return Row;
}

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
      std::fprintf(stderr, "usage: perf_eval [--quick] [--json=PATH] "
                           "[--stats] [--trace-out=PATH]\n");
      return 2;
    }
  }

  const Kernel K = buildKernel("MM");
  std::vector<Kernel> PaperKernels, NamedKernels;
  for (const KernelSpec &Spec : paperKernels()) {
    PaperKernels.push_back(buildKernel(Spec.Name));
    NamedKernels.push_back(buildKernel(Spec.Name));
  }
  for (const KernelSpec &Spec : extendedKernels())
    NamedKernels.push_back(buildKernel(Spec.Name));
  const unsigned Reps = Quick ? 2 : 5;
  const std::vector<unsigned> ThreadCounts = {1, 4, 8};
  // One pool per thread count, built outside the timed runs, so a row's
  // thread count is the number of workers that ran it.
  std::map<unsigned, std::shared_ptr<ThreadPool>> Pools;
  for (unsigned T : ThreadCounts)
    if (T > 1)
      Pools[T] = std::make_shared<ThreadPool>(T);
  auto poolFor = [&Pools](unsigned T) {
    return T > 1 ? Pools.at(T) : nullptr;
  };

  //===------------------------------------------------------------===//
  // Timed sweeps.
  //===------------------------------------------------------------===//
  std::vector<SweepRow> Rows;
  for (unsigned T : ThreadCounts)
    Rows.push_back(measure("on-cold", T, Reps,
                           [&] { return runSweep(K, poolFor(T)); }));
  Rows.push_back(
      measure("guided", 1, Reps, [&] { return runGuided(PaperKernels); }));
  for (unsigned T : ThreadCounts)
    Rows.push_back(measure("batch", T, Reps, [&] {
      return runBatch(NamedKernels, T, poolFor(T));
    }));
  for (SweepRow &R : Rows)
    for (const SweepRow &Base : Rows)
      if (R.Threads > 1 && Base.Mode == R.Mode && Base.Threads == 1 &&
          Base.evalsPerSec() > 0)
        R.Efficiency = R.evalsPerSec() / (R.Threads * Base.evalsPerSec());

  //===------------------------------------------------------------===//
  // Parity gate.
  //===------------------------------------------------------------===//
  bool ParityOk = true;
  auto check = [&ParityOk](bool Cond, const std::string &What) {
    if (!Cond) {
      std::fprintf(stderr, "PARITY VIOLATION: %s\n", What.c_str());
      ParityOk = false;
    }
    return Cond;
  };

  bool ThreadsMatch = false, GoldenMatch = false, GuidedMatch = true;
  {
    Outcome Cold1 = runSweep(K, nullptr, /*WantDigest=*/true);
    Outcome Cold8 = runSweep(K, poolFor(8), /*WantDigest=*/true);
    ThreadsMatch = !Cold1.Digest.empty() && Cold1.Digest == Cold8.Digest;
    check(ThreadsMatch, "decision digest differs at 1 vs 8 threads");

    std::string Golden = goldenLine("MM", "exhaustive");
    GoldenMatch = !Golden.empty() &&
                  Golden.find(Cold1.Winners[0]) != std::string::npos;
    check(GoldenMatch, "MM exhaustive winner differs from the golden answer");

    Outcome Guided = runGuided(PaperKernels);
    for (size_t I = 0; I != PaperKernels.size(); ++I) {
      Golden = goldenLine(PaperKernels[I].name(), "guided");
      GuidedMatch &= check(
          !Golden.empty() &&
              Golden.find(Guided.Winners[I]) != std::string::npos,
          PaperKernels[I].name() +
              " guided winner differs from the golden answer");
    }
  }

  //===------------------------------------------------------------===//
  // Instrumented phase-split pass (cold MM sweep), outside the timed
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
    runSweep(K, nullptr);
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
  std::printf("%-8s %8s %6s %14s %10s %14s %11s\n", "mode", "threads",
              "reps", "best_wall_ms", "cpu_ms", "evals/sec", "efficiency");
  for (const SweepRow &R : Rows) {
    std::printf("%-8s %8u %6u %14.2f %10.2f %14.1f", R.Mode.c_str(),
                R.Threads, R.Repetitions, R.BestSeconds * 1e3,
                R.BestCpuSeconds * 1e3, R.evalsPerSec());
    if (R.Threads > 1)
      std::printf(" %11.2f", R.Efficiency);
    std::printf("\n");
  }
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
       << ", \"cpu_ms\": " << R.BestCpuSeconds * 1e3
       << ", \"evaluations\": " << R.Evaluations
       << ", \"evals_per_sec\": " << R.evalsPerSec();
    if (R.Threads > 1)
      OS << ", \"efficiency\": " << R.Efficiency;
    OS << "}" << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  OS << "  ],\n";
  OS << "  \"parity\": {\"digest_match_1_vs_8threads\": "
     << (ThreadsMatch ? "true" : "false")
     << ", \"golden_winner_match\": " << (GoldenMatch ? "true" : "false")
     << ", \"golden_guided_match\": " << (GuidedMatch ? "true" : "false")
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
