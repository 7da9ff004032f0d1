//===- fig8_jac_pipelined.cpp - Figure 8 reproduction --------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 8 of the paper: balance, execution cycles, and design
/// area for JAC with pipelined memory accesses, as a function of the
/// inner and outer unroll factors. Pass --csv for machine-readable
/// output and --pipeline=p1,p2,... to override the transformation pass
/// pipeline.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

int main(int argc, char **argv) {
  return defacto::bench::runFigureSweep(
      "Figure 8", "JAC",
      defacto::TargetPlatform::wildstarPipelined(),
      defacto::bench::parseCsvFlag(argc, argv),
      defacto::bench::parsePipelineFlag(argc, argv));
}
