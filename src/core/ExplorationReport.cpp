//===- ExplorationReport.cpp ----------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/ExplorationReport.h"

#include "defacto/Support/Histogram.h"
#include "defacto/Support/Table.h"

#include <sstream>

using namespace defacto;

namespace {

/// The design as the user should read it: the bare unroll vector for
/// unroll-only points (the historical rendering, byte for byte), the
/// full point with perm/tile suffixes otherwise.
std::string designString(const UnrollVector &U, const DesignPoint &P) {
  return P.isUnrollOnly() ? unrollVectorToString(U) : P.toString();
}

} // namespace

std::string ExplorationResult::toString() const {
  std::ostringstream OS;
  if (!Strategy.empty())
    OS << "strategy=" << Strategy << ' ';
  OS << "selected=" << designString(Selected, SelectedPoint)
     << " cycles=" << SelectedEstimate.Cycles
     << " slices=" << formatDouble(SelectedEstimate.Slices, 0)
     << " balance=" << formatDouble(SelectedEstimate.Balance, 3)
     << " speedup=" << formatDouble(speedup(), 2) << 'x'
     << " evals=" << EvaluationsUsed;
  if (!SelectedFits)
    OS << " DOES-NOT-FIT";
  if (Degraded)
    OS << " DEGRADED(" << Failures.size() << " failure"
       << (Failures.size() == 1 ? "" : "s") << ')';
  return OS.str();
}

namespace {

bool traceHas(const ExplorationResult &R, const char *Marker) {
  return R.Trace.find(Marker) != std::string::npos;
}

const char *boundness(const SynthesisEstimate &E) {
  if (E.isComputeBound())
    return "compute-bound";
  if (E.isMemoryBound())
    return "memory-bound";
  return "balanced";
}

/// Why the walk ended, reconstructed from the engine's walk trace and the
/// failure log. Mirrors the markers Explorer.cpp emits.
std::string stopReason(const ExplorationResult &R) {
  if (traceHas(R, "memory bound at Uinit"))
    return "the saturation-point design Uinit was already memory bound; "
           "by the balance monotonicity observation no larger unroll "
           "vector can help, so the walk stopped after bisecting below "
           "Uinit";
  if (traceHas(R, "no design fits this device"))
    return "no candidate fits the device; the baseline is reported "
           "although it exceeds capacity";
  if (traceHas(R, "Uinit exceeds capacity"))
    return "the saturation-point design exceeded device capacity; the "
           "walk fell back to the largest fitting design (FindLargestFit)";
  if (traceHas(R, "balanced; done"))
    return "the walk reached a design whose balance B = F/C is within "
           "tolerance of 1 (SelectBetween converged)";
  if (traceHas(R, "no larger candidate"))
    return "the Increase chain exhausted the unroll space while still "
           "compute bound";
  for (const EvaluationFailure &F : R.Failures)
    if (F.Attempts == 0)
      return "the search was cut short (" + F.Error.message() +
             ") before natural convergence";
  if (R.Degraded)
    return "estimation failures degraded the search; the best "
           "successfully evaluated design was selected";
  return "the walk converged";
}

void appendVisited(std::ostringstream &OS, const ExplorationResult &R,
                   const ReportOptions &Opts) {
  Table T({"#", "role", "design", "balance", "cycles", "slices", "bound"});
  auto Row = [&](size_t I) {
    const EvaluatedDesign &D = R.Visited[I];
    T.addRow({std::to_string(I), D.Role, designString(D.U, D.Point),
              formatDouble(D.Estimate.Balance, 3),
              formatWithCommas(static_cast<int64_t>(D.Estimate.Cycles)),
              formatDouble(D.Estimate.Slices, 0),
              boundness(D.Estimate)});
  };
  size_t N = R.Visited.size();
  size_t Cap = Opts.MaxVisitedRows == 0 ? N : Opts.MaxVisitedRows;
  if (N <= Cap) {
    for (size_t I = 0; I != N; ++I)
      Row(I);
  } else {
    // Keep the head and tail; the middle of a long walk is repetitive.
    size_t Head = Cap / 2, Tail = Cap - Head;
    for (size_t I = 0; I != Head; ++I)
      Row(I);
    T.addRow({"...", "...", "...", "...", "...", "...", "..."});
    for (size_t I = N - Tail; I != N; ++I)
      Row(I);
  }
  OS << "Visited designs (" << N << ", search order):\n"
     << T.toString(2);
}

} // namespace

std::string defacto::renderExplorationReport(const ExplorationResult &R,
                                             const std::string &Label,
                                             const ReportOptions &Opts) {
  std::ostringstream OS;
  if (!Label.empty())
    OS << "=== Exploration report: " << Label << " ===\n";

  OS << "Selected " << designString(R.Selected, R.SelectedPoint) << " ("
     << boundness(R.SelectedEstimate) << ", B="
     << formatDouble(R.SelectedEstimate.Balance, 3) << "): "
     << formatWithCommas(static_cast<int64_t>(R.SelectedEstimate.Cycles))
     << " cycles, " << formatDouble(R.SelectedEstimate.Slices, 0)
     << " slices, " << R.SelectedEstimate.Registers << " registers";
  if (!R.SelectedFits)
    OS << " [exceeds device capacity]";
  OS << "\n";
  // The baseline is the untiled nest's all-ones vector; a tiled winner's
  // unroll is one deeper than the nest it came from.
  size_t NestDepth = R.Selected.size() - (R.SelectedPoint.Tile ? 1 : 0);
  OS << "Speedup over baseline "
     << unrollVectorToString(UnrollVector(NestDepth, 1)) << " ("
     << formatWithCommas(static_cast<int64_t>(R.BaselineEstimate.Cycles))
     << " cycles): " << formatDouble(R.speedup(), 2) << "x\n";
  if (!R.Strategy.empty())
    OS << "Strategy: " << R.Strategy << "\n";
  OS << "Why it stopped: " << stopReason(R) << ".\n";

  OS << "Search economy: Psat=" << R.Sat.Psat << " (R=" << R.Sat.R
     << ", W=" << R.Sat.W << "); " << R.EvaluationsUsed
     << " estimator attempts over " << R.Visited.size()
     << " designs; full space " << formatWithCommas(
            static_cast<int64_t>(R.FullSpaceSize))
     << " designs (" << formatDouble(R.fractionSearched() * 100.0, 2)
     << "% searched)\n";

  // A portfolio result reports per-strategy sections — one sub-report per
  // strategy it ran, each with its own visit table and failure log —
  // instead of one merged walk table.
  if (!R.SubResults.empty()) {
    for (const ExplorationResult &Sub : R.SubResults) {
      OS << "--- strategy " << Sub.Strategy;
      if (Sub.Selected == R.Selected &&
          Sub.SelectedEstimate.Cycles == R.SelectedEstimate.Cycles)
        OS << " [winner]";
      OS << " ---\n";
      OS << renderExplorationReport(Sub, "", Opts);
    }
  } else if (Opts.ShowVisited && !R.Visited.empty()) {
    appendVisited(OS, R, Opts);
  }

  if (R.Degraded || !R.Failures.empty()) {
    OS << "DEGRADED: the run did not reach healthy convergence.\n";
    if (!R.Failures.empty()) {
      Table T({"design", "attempts", "error"});
      for (const EvaluationFailure &F : R.Failures)
        T.addRow({designString(F.U, F.Point),
                  F.Attempts == 0 ? "stop" : std::to_string(F.Attempts),
                  F.Error.message()});
      OS << "Failure log (" << R.Failures.size() << "):\n" << T.toString(2);
    }
  }

  // Per-pass pipeline timing, when the run recorded any (stats enabled
  // and the pipeline.pass.* spans fired). Process-wide accumulation, so
  // in a batch the numbers cover every job rendered so far.
  if (Opts.ShowPassTimings) {
    Table T({"pass", "wall ms", "runs", "mean us"});
    const std::string Prefix = "pipeline.pass.";
    for (const HistogramSnapshot &S : HistogramRegistry::global().snapshot()) {
      std::string Phase = spanPhase(S.Name);
      if (Phase.rfind(Prefix, 0) != 0)
        continue;
      T.addRow({Phase.substr(Prefix.size()),
                formatDouble(static_cast<double>(S.Sum) / 1000.0, 2),
                std::to_string(S.Count), formatDouble(S.mean(), 1)});
    }
    if (T.numRows() != 0)
      OS << "Pass pipeline timing (process-wide):\n" << T.toString(2);
  }

  if (Opts.ShowWalkTrace && !R.Trace.empty())
    OS << "Walk trace:\n" << R.Trace;

  return OS.str();
}
