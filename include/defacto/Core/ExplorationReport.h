//===- ExplorationReport.h - Human-readable exploration explain -*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders an ExplorationResult as a multi-line explanation: which design
/// won and why, how the balance-guided walk pruned the space (saturation
/// point, Observation-1 monotonicity, capacity), what every visited
/// design looked like, and — crucially — any degradation the run suffered
/// (permanent estimation failures, budget or deadline stops), which
/// one-line summaries tend to drop silently.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_EXPLORATIONREPORT_H
#define DEFACTO_CORE_EXPLORATIONREPORT_H

#include "defacto/Core/Explorer.h"

#include <string>

namespace defacto {

/// Knobs for renderExplorationReport.
struct ReportOptions {
  /// Emit the per-design visit table.
  bool ShowVisited = true;
  /// Rows of the visit table before eliding the middle (0 = unlimited).
  unsigned MaxVisitedRows = 24;
  /// Append the engine's raw textual walk trace verbatim.
  bool ShowWalkTrace = false;
  /// Append the per-pass pipeline timing table (the pipeline.pass.*
  /// spans). Spans only record while stats recording is enabled, and
  /// they are process-wide — in a batch the table covers
  /// every job run so far, not just this result.
  bool ShowPassTimings = false;
};

/// Full multi-line explanation of \p R. \p Label names the exploration
/// (kernel or batch-job name) in the heading; empty omits the heading.
std::string renderExplorationReport(const ExplorationResult &R,
                                    const std::string &Label = "",
                                    const ReportOptions &Opts = {});

} // namespace defacto

#endif // DEFACTO_CORE_EXPLORATIONREPORT_H
