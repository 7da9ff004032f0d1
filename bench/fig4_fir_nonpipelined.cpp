//===- fig4_fir_nonpipelined.cpp - Figure 4 reproduction --------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 4 of the paper: balance, execution cycles, and design
/// area for FIR with nonpipelined memory accesses, as a function of the
/// inner and outer unroll factors. Pass --csv for machine-readable
/// output and --pipeline=p1,p2,... to override the transformation pass
/// pipeline.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int main(int argc, char **argv) {
  return defacto::bench::runFigureSweep(
      "Figure 4", "FIR",
      defacto::TargetPlatform::wildstarNonPipelined(),
      defacto::bench::parseCsvFlag(argc, argv),
      defacto::bench::parsePipelineFlag(argc, argv));
}
