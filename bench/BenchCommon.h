//===- BenchCommon.h - Shared benchmark harness helpers --------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the paper-figure benchmark binaries: the unroll
/// sweep that regenerates the balance / execution-cycles / area panels of
/// Figures 4-10, with the DSE-selected design and the device capacity
/// marked the way the paper's plots mark them.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_BENCH_BENCHCOMMON_H
#define DEFACTO_BENCH_BENCHCOMMON_H

#include "defacto/Core/Explorer.h"
#include "defacto/Kernels/Kernels.h"

#include <string>

namespace defacto {
namespace bench {

/// Runs the full divisor sweep for \p KernelName on \p Platform and
/// prints the three panels of one paper figure:
///   (a) Balance vs unroll factors,
///   (b) Execution cycles,
///   (c) Design area in slices (with the device capacity marked).
/// The DSE-selected design is marked with '*'; designs exceeding the
/// device capacity with '!'. Rows are inner-loop unroll factors (the
/// paper's x axis); columns are outer-loop factors (the paper's curves).
/// With \p Csv the panels print as CSV blocks for downstream plotting.
/// \p Pipeline overrides the transformation pass pipeline (a
/// comma-separated PassRegistry list; empty keeps the default — see
/// parsePipelineFlag). Returns 0 on success, 2 on a bad pipeline.
int runFigureSweep(const std::string &FigureName,
                   const std::string &KernelName,
                   const TargetPlatform &Platform, bool Csv = false,
                   const std::string &Pipeline = "");

/// Parses the common figure-bench command line: `--csv` selects CSV
/// output.
bool parseCsvFlag(int Argc, char **Argv);

/// Parses `--pipeline=p1,p2,...` (a comma-separated PassRegistry pass
/// list overriding the default transformation pipeline). Defaults to ""
/// (the built-in default pipeline); an unparsable list warns on stderr
/// — listing the registered passes — and falls back to the default, so
/// a figure bench still produces its panels.
std::string parsePipelineFlag(int Argc, char **Argv);

/// The common observability command line shared by the bench binaries:
///   --trace-out=PATH   write a Chrome trace_event file (chrome://tracing
///                      / Perfetto) of the run's decision/phase events
///   --stats            print the counter and histogram registries (phase
///                      spans included) at exit
///   --stats-out=PATH   write counters + histograms as one JSON document
///                      at exit
struct ObservabilityFlags {
  std::string TraceOutPath; // empty: tracing stays off
  bool Stats = false;
  std::string StatsOutPath; // empty: no stats file

  bool any() const {
    return Stats || !TraceOutPath.empty() || !StatsOutPath.empty();
  }
};

/// Peels --trace-out=/--stats/--stats-out out of (\p Argc, \p Argv),
/// compacting the remaining arguments in place, and enables the global
/// TraceRecorder / StatRegistry accordingly. Call before handing argv to
/// another parser.
ObservabilityFlags parseObservabilityFlags(int &Argc, char **Argv);

/// Finishes an observed run: writes the Chrome trace when a path was
/// given, prints counters plus histograms when --stats was, and writes
/// the stats JSON file when --stats-out was. Returns false when an output
/// file could not be written.
bool finishObservability(const ObservabilityFlags &Flags);

/// The "phase_timings_ms" block of a bench report, read from the phase
/// spans (every "<phase>_us" histogram): {"<phase>": {"wall_ms": W,
/// "count": N}, ...}, sorted by phase.
std::string phaseTimingsJson();

} // namespace bench
} // namespace defacto

#endif // DEFACTO_BENCH_BENCHCOMMON_H
