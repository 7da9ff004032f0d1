//===- Estimator.h - Behavioral synthesis estimation -----------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The behavioral synthesis estimator standing in for Mentor Graphics
/// Monet (§6.2): given a transformed kernel, it returns execution cycles
/// and area, plus the data fetch rate F, consumption rate C, and the
/// Balance = F/C metric (§3) the DSE algorithm steers by.
///
/// The estimator walks the kernel's loop structure, schedules every
/// straight-line segment (Scheduler.h), and aggregates:
///  - Cycles: sum over regions of trips * (segment cycles + loop control
///    overhead).
///  - F = total bits moved / bandwidth-limited cycles; C = total bits
///    moved / compute-critical-path cycles. Balance = F/C collapses to
///    (compute-only cycles) / (memory-only cycles): > 1 means the memory
///    system outruns the datapath (compute bound), < 1 memory bound.
///  - Area: bound datapath units (peak concurrent use per operator shape,
///    shared across peeled and steady-state code, as behavioral synthesis
///    reuses operators), registers, rotation muxes, memory interfaces,
///    and FSM control.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_HLS_ESTIMATOR_H
#define DEFACTO_HLS_ESTIMATOR_H

#include "defacto/HLS/Scheduler.h"
#include "defacto/IR/Kernel.h"
#include "defacto/Support/Error.h"

#include <functional>
#include <map>
#include <string>

namespace defacto {

/// What behavioral synthesis estimation reports for one design.
struct SynthesisEstimate {
  /// Execution cycles for the whole computation.
  uint64_t Cycles = 0;
  /// Estimated device slices.
  double Slices = 0;
  /// On-chip registers (scalar variables incl. chains/windows).
  unsigned Registers = 0;
  /// Allocated datapath units per operator shape.
  std::map<OpShape, unsigned> Units;
  /// Data fetch rate F: bits/cycle the memory system provides.
  double FetchRate = 0;
  /// Data consumption rate C: bits/cycle the datapath consumes.
  double ConsumeRate = 0;
  /// Balance = F / C (§3). HUGE_VAL when the design needs no memory.
  double Balance = 0;
  /// Aggregate scheduling detail (whole-execution totals).
  double MemOnlyCycles = 0;
  double CompOnlyCycles = 0;
  double BitsTransferred = 0;
  uint64_t FsmStates = 0;

  bool isComputeBound() const { return Balance > 1.0; }
  bool isMemoryBound() const { return Balance < 1.0; }
  bool fits(double CapacitySlices) const { return Slices <= CapacitySlices; }

  std::string toString() const;
};

/// One scheduled straight-line region in the estimate breakdown:
/// where it sits in the loop structure, how often it executes, and what
/// one execution costs. Useful for understanding where a design's
/// cycles go (the paper's designers read Monet schedules the same way).
struct RegionReport {
  /// Loop-index path, e.g. "j/i" for FIR's innermost body; "<top>" for
  /// code outside all loops.
  std::string Path;
  /// How many times the region executes over the whole computation.
  uint64_t Executions = 0;
  /// Joint schedule length of one execution.
  uint64_t CyclesPerExecution = 0;
  unsigned MemReads = 0;
  unsigned MemWrites = 0;

  uint64_t totalCycles() const { return Executions * CyclesPerExecution; }
};

/// Estimates \p K on \p Platform. \p K is typically the output of
/// applyPipeline; arrays without a physical memory id are assigned ports
/// round-robin in first-use order. When \p Breakdown is non-null it is
/// filled with one entry per scheduled region, in program order.
///
/// An unrolled body is U structurally identical copies of a base body,
/// so the straight-line segments a sweep schedules repeat across
/// candidates: list scheduling is memoized per (segment, platform) in a
/// per-thread table (exact key compare — a hit returns the bit-identical
/// SegmentSchedule). Platforms with declared or uniform widths key the
/// memo on the segment's structure and skip building the DFG on a hit;
/// WidthModel::Inferred widths are whole-kernel state, so those
/// platforms key it on the built DFG. tests/golden/paper_answers.golden
/// pins the resulting estimates bit for bit.
SynthesisEstimate
estimateDesign(const Kernel &K, const TargetPlatform &Platform,
               std::vector<RegionReport> *Breakdown = nullptr);

/// Signature of a synthesis-estimation backend as the exploration engine
/// consumes it. Backends may fail (a real synthesis tool crashes, times
/// out, or returns garbage); FaultInjector wraps one backend in another.
using EstimatorFn =
    std::function<Expected<SynthesisEstimate>(const Kernel &,
                                              const TargetPlatform &)>;

/// The recoverable entry point: verifies \p K first and reports
/// ErrorCode::MalformedIR instead of computing garbage on invalid IR,
/// then estimates. This is the default backend behind ExplorerOptions.
Expected<SynthesisEstimate>
estimateDesignChecked(const Kernel &K, const TargetPlatform &Platform);

} // namespace defacto

#endif // DEFACTO_HLS_ESTIMATOR_H
