//===- bench_diff.cpp - Compare two BENCH_eval.json reports ---------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Compares two perf_eval reports (BENCH_eval.json) sweep by
/// sweep: the baseline (usually the committed file) against a fresh run.
/// Sweeps are matched on (mode, threads); the table shows evaluations
/// per second and best wall time side by side with the percentage
/// change. The evaluation-latency percentiles are compared when both
/// reports carry them — either side may predate that section, so a
/// missing one is skipped, not an error.
///
///   bench_diff BASELINE.json CURRENT.json [--threshold-pct=N]
///              [--fail-on-regression]
///
///   --threshold-pct=N       flag evals/sec drops beyond N% (default 10)
///   --fail-on-regression    exit 1 when any sweep regresses beyond the
///                           threshold (default: warn on stderr, exit 0,
///                           so CI can run the diff as a warn-only step
///                           on noisy shared runners)
///
/// Exits 0 on a clean comparison (or warn-only regressions), 1 on
/// unreadable/unparsable input or gated regressions, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "defacto/Support/CommandLine.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/Table.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace defacto;

namespace {

bool readJsonFile(const std::string &Path, JsonValue &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", Path.c_str());
    return false;
  }
  std::ostringstream OS;
  OS << In.rdbuf();
  Expected<JsonValue> Parsed = parseJson(OS.str());
  if (!Parsed) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", Path.c_str(),
                 Parsed.status().message().c_str());
    return false;
  }
  Out = std::move(*Parsed);
  return true;
}

const JsonValue *findSweep(const JsonValue &Report, const std::string &Mode,
                           uint64_t Threads) {
  const JsonValue *Sweeps = Report.find("sweeps");
  if (!Sweeps || !Sweeps->isArray())
    return nullptr;
  for (const JsonValue &S : Sweeps->Elements)
    if (S.str("mode") == Mode && S.uint("threads") == Threads)
      return &S;
  return nullptr;
}

std::string pct(double Base, double Cur) {
  if (Base <= 0)
    return "-";
  double Delta = 100.0 * (Cur - Base) / Base;
  return (Delta >= 0 ? "+" : "") + formatDouble(Delta, 1) + "%";
}

} // namespace

int main(int argc, char **argv) {
  cl::ArgList Args(argc, argv);
  bool FailOnRegression = Args.consumeFlag("--fail-on-regression");
  unsigned ThresholdPct = Args.consumeUnsigned("--threshold-pct").value_or(10);
  if (Args.rest().size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff BASELINE.json CURRENT.json "
                 "[--threshold-pct=N] [--fail-on-regression]\n");
    return 2;
  }
  const std::string BasePath = Args.rest()[0], CurPath = Args.rest()[1];
  JsonValue Base, Cur;
  if (!readJsonFile(BasePath, Base) || !readJsonFile(CurPath, Cur))
    return 1;

  std::printf("bench_diff: %s (baseline, quick=%s) vs %s (current, "
              "quick=%s), kernel %s\n\n",
              BasePath.c_str(), Base.boolean("quick") ? "true" : "false",
              CurPath.c_str(), Cur.boolean("quick") ? "true" : "false",
              Cur.str("kernel", "?").c_str());

  //===------------------------------------------------------------===//
  // Per-sweep throughput, matched on (mode, threads) from the current
  // report so a baseline with extra sweeps still compares cleanly.
  //===------------------------------------------------------------===//
  unsigned Regressions = 0;
  std::vector<std::string> RegressionNotes;
  Table Sweeps({"mode", "threads", "base evals/s", "cur evals/s", "delta",
                "base wall_ms", "cur wall_ms"});
  const JsonValue *CurSweeps = Cur.find("sweeps");
  if (CurSweeps && CurSweeps->isArray()) {
    for (const JsonValue &S : CurSweeps->Elements) {
      const std::string Mode = S.str("mode");
      const uint64_t Threads = S.uint("threads");
      const JsonValue *B = findSweep(Base, Mode, Threads);
      double CurEps = S.num("evals_per_sec");
      double BaseEps = B ? B->num("evals_per_sec") : 0;
      Sweeps.addRow({Mode, std::to_string(Threads),
                     B ? formatDouble(BaseEps, 1) : "-",
                     formatDouble(CurEps, 1), B ? pct(BaseEps, CurEps) : "-",
                     B ? formatDouble(1e3 * B->num("best_wall_seconds"), 2)
                       : "-",
                     formatDouble(1e3 * S.num("best_wall_seconds"), 2)});
      if (B && BaseEps > 0 &&
          CurEps < BaseEps * (1.0 - ThresholdPct / 100.0)) {
        ++Regressions;
        RegressionNotes.push_back(
            Mode + " @" + std::to_string(Threads) + " threads: " +
            formatDouble(BaseEps, 1) + " -> " + formatDouble(CurEps, 1) +
            " evals/s (" + pct(BaseEps, CurEps) + ")");
      }
    }
  }
  std::printf("%s\n", Sweeps.toString(2).c_str());

  //===------------------------------------------------------------===//
  // Evaluation latency percentiles, when both reports carry the
  // section (added after the first committed baselines).
  //===------------------------------------------------------------===//
  const JsonValue *BaseLat = Base.find("latency_percentiles");
  const JsonValue *CurLat = Cur.find("latency_percentiles");
  if (BaseLat && CurLat) {
    const JsonValue *B = BaseLat->find("on");
    const JsonValue *C = CurLat->find("on");
    if (B && C) {
      auto Cell = [&](const char *Key) {
        return formatDouble(B->num(Key), 0) + " / " +
               formatDouble(C->num(Key), 0);
      };
      Table Lat({"mode", "p50_us (base/cur)", "p95_us (base/cur)",
                 "p99_us (base/cur)"});
      Lat.addRow({"on", Cell("p50_us"), Cell("p95_us"), Cell("p99_us")});
      std::printf("%s\n", Lat.toString(2).c_str());
    }
  } else if (CurLat && !BaseLat) {
    std::printf("  (baseline has no latency_percentiles section; "
                "skipping that comparison)\n\n");
  }

  if (Regressions > 0) {
    for (const std::string &Note : RegressionNotes)
      std::fprintf(stderr, "bench_diff: %s: regression beyond %u%%: %s\n",
                   FailOnRegression ? "error" : "warning", ThresholdPct,
                   Note.c_str());
    if (FailOnRegression)
      return 1;
  } else {
    std::printf("no evals/sec regression beyond %u%%\n", ThresholdPct);
  }
  return 0;
}
