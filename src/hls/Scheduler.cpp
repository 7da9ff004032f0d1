//===- Scheduler.cpp ------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/HLS/Scheduler.h"

#include "defacto/Support/Cancellation.h"
#include "defacto/Support/Histogram.h"

#include <algorithm>
#include <cmath>
#include <vector>

using namespace defacto;

namespace {

/// Absolute times are in nanoseconds; cycle boundaries are multiples of
/// the clock period.
struct NodeTime {
  double Start = 0;
  double Finish = 0;
};

int64_t cycleOf(double TimeNs, double Period) {
  return static_cast<int64_t>(std::floor(TimeNs / Period + 1e-9));
}

double ceilToCycle(double TimeNs, double Period) {
  return std::ceil(TimeNs / Period - 1e-9) * Period;
}

/// Joint or compute-only list schedule. When \p MemoryFree is true,
/// memory reads complete at time zero and writes are skipped (the
/// compute-only critical path).
std::vector<NodeTime> listSchedule(const DFG &Graph,
                                   const TargetPlatform &P,
                                   bool MemoryFree) {
  double Period = P.ClockPeriodNs;
  std::vector<NodeTime> Times(Graph.Nodes.size());
  std::vector<double> PortFree(P.NumMemories == 0 ? 1 : P.NumMemories, 0.0);

  for (unsigned I = 0; I != Graph.Nodes.size(); ++I) {
    // Cooperative hang-watchdog poll: a cancelled evaluation abandons
    // the schedule mid-walk; estimateDesignChecked discards the partial
    // result and reports ErrorCode::Cancelled.
    if (currentCancelled())
      break;
    const DFGNode &Node = Graph.Nodes[I];
    double Ready = 0;
    for (unsigned Pred : Graph.Nodes[I].Preds)
      Ready = std::max(Ready, Times[Pred].Finish);

    if (Node.isMemory()) {
      if (MemoryFree) {
        Times[I] = {0, 0};
        continue;
      }
      unsigned Latency = Node.NodeKind == DFGNode::Kind::MemRead
                             ? P.Timing.ReadLatencyCycles
                             : P.Timing.WriteLatencyCycles;
      unsigned Busy = P.Timing.Pipelined ? 1 : Latency;
      unsigned Port = Node.Port % PortFree.size();
      double Start =
          std::max(ceilToCycle(Ready, Period), PortFree[Port]);
      PortFree[Port] = Start + Busy * Period;
      Times[I] = {Start, Start + Latency * Period};
      continue;
    }

    double Delay = operatorDelayNs(Node.Class, Node.WidthBits);
    if (Delay <= 0) {
      // Wiring (constant shifts, power-of-two scaling): free.
      Times[I] = {Ready, Ready};
      continue;
    }
    double Start = Ready;
    if (P.OperatorChaining) {
      // Chain within the current cycle if the result still meets timing;
      // otherwise start at the next cycle boundary.
      double CycleEnd = ceilToCycle(Start, Period);
      if (CycleEnd > Start && Start + Delay > CycleEnd + 1e-9)
        Start = CycleEnd;
      Times[I] = {Start, Start + Delay};
      continue;
    }
    // One operator level per cycle: start at a cycle boundary, occupy a
    // whole number of cycles.
    Start = ceilToCycle(Start, Period);
    double Cycles = std::max(1.0, std::ceil(Delay / Period - 1e-9));
    Times[I] = {Start, Start + Cycles * Period};
  }
  return Times;
}

} // namespace

SegmentSchedule defacto::scheduleSegment(const DFG &Graph,
                                         const TargetPlatform &Platform) {
  return scheduleSegmentDetailed(Graph, Platform).Summary;
}

DetailedSchedule
defacto::scheduleSegmentDetailed(const DFG &Graph,
                                 const TargetPlatform &Platform) {
  DEFACTO_SPAN("scheduler.schedule");
  DetailedSchedule Detailed;
  SegmentSchedule &Out = Detailed.Summary;
  if (Graph.Nodes.empty())
    return Detailed;
  double Period = Platform.ClockPeriodNs;

  // Joint schedule.
  std::vector<NodeTime> Joint = listSchedule(Graph, Platform,
                                             /*MemoryFree=*/false);
  double JointEnd = 0;
  for (const NodeTime &T : Joint)
    JointEnd = std::max(JointEnd, T.Finish);
  Out.JointCycles =
      static_cast<uint64_t>(std::ceil(JointEnd / Period - 1e-9));

  // Compute-only critical path.
  std::vector<NodeTime> Comp = listSchedule(Graph, Platform,
                                            /*MemoryFree=*/true);
  double CompEnd = 0;
  for (unsigned I = 0; I != Graph.Nodes.size(); ++I)
    if (!Graph.Nodes[I].isMemory())
      CompEnd = std::max(CompEnd, Comp[I].Finish);
  Out.CompOnlyCycles =
      static_cast<uint64_t>(std::ceil(CompEnd / Period - 1e-9));

  // Memory-only bandwidth bound: busiest port's total occupancy.
  std::vector<uint64_t> PortBusy(
      Platform.NumMemories == 0 ? 1 : Platform.NumMemories, 0);
  for (const DFGNode &Node : Graph.Nodes) {
    if (!Node.isMemory())
      continue;
    unsigned Latency = Node.NodeKind == DFGNode::Kind::MemRead
                           ? Platform.Timing.ReadLatencyCycles
                           : Platform.Timing.WriteLatencyCycles;
    unsigned Busy = Platform.Timing.Pipelined ? 1 : Latency;
    PortBusy[Node.Port % PortBusy.size()] += Busy;
    Out.BitsTransferred += Node.WidthBits;
    if (Node.NodeKind == DFGNode::Kind::MemRead)
      ++Out.MemReads;
    else
      ++Out.MemWrites;
  }
  for (uint64_t Busy : PortBusy)
    Out.MemOnlyCycles = std::max(Out.MemOnlyCycles, Busy);

  // Peak concurrent units per operator shape in the joint schedule.
  std::map<OpShape, std::vector<std::pair<int64_t, int64_t>>> Intervals;
  for (unsigned I = 0; I != Graph.Nodes.size(); ++I) {
    const DFGNode &Node = Graph.Nodes[I];
    if (Node.isMemory() || Node.Class == OpClass::Wire)
      continue;
    int64_t StartCycle = cycleOf(Joint[I].Start, Period);
    int64_t EndCycle =
        std::max(StartCycle + 1,
                 static_cast<int64_t>(
                     std::ceil(Joint[I].Finish / Period - 1e-9)));
    Intervals[{Node.Class, Node.WidthBits}].push_back({StartCycle, EndCycle});
  }
  // Per-node placements for reporting.
  Detailed.Placements.resize(Graph.Nodes.size());
  for (unsigned I = 0; I != Graph.Nodes.size(); ++I) {
    int64_t StartCycle = cycleOf(Joint[I].Start, Period);
    int64_t EndCycle = static_cast<int64_t>(
        std::ceil(Joint[I].Finish / Period - 1e-9));
    Detailed.Placements[I] = {StartCycle, std::max(StartCycle, EndCycle)};
  }

  for (auto &[Shape, Ranges] : Intervals) {
    // Sweep line over interval starts/ends.
    std::vector<std::pair<int64_t, int>> Events;
    for (const auto &[S, E] : Ranges) {
      Events.push_back({S, +1});
      Events.push_back({E, -1});
    }
    std::sort(Events.begin(), Events.end());
    int Cur = 0, Peak = 0;
    for (const auto &[At, Delta] : Events) {
      (void)At;
      Cur += Delta;
      Peak = std::max(Peak, Cur);
    }
    Out.PeakUnits[Shape] = static_cast<unsigned>(Peak);
  }
  return Detailed;
}

std::string defacto::renderScheduleGantt(const DFG &Graph,
                                         const DetailedSchedule &Schedule) {
  std::string Out;
  int64_t Cycles = static_cast<int64_t>(Schedule.Summary.JointCycles);
  if (Cycles <= 0 || Graph.Nodes.empty())
    return "(empty schedule)\n";

  // Header rule with cycle numbers every 5 cycles.
  Out += "          cycle 0";
  for (int64_t C = 5; C < Cycles; C += 5) {
    std::string Num = std::to_string(C);
    Out += std::string(5 - std::min<size_t>(4, Num.size() - 1), ' ');
    Out += Num;
  }
  Out += "\n";

  for (unsigned I = 0; I != Graph.Nodes.size(); ++I) {
    const DFGNode &Node = Graph.Nodes[I];
    std::string Label;
    switch (Node.NodeKind) {
    case DFGNode::Kind::MemRead:
      Label = "rd@m" + std::to_string(Node.Port);
      break;
    case DFGNode::Kind::MemWrite:
      Label = "wr@m" + std::to_string(Node.Port);
      break;
    case DFGNode::Kind::Compute:
      Label = std::string(opClassName(Node.Class)) +
              std::to_string(Node.WidthBits);
      break;
    }
    if (Label.size() < 10)
      Label += std::string(10 - Label.size(), ' ');
    Out += Label;

    const NodePlacement &P = Schedule.Placements[I];
    std::string Row(static_cast<size_t>(Cycles), '.');
    if (P.EndCycle == P.StartCycle) {
      // Zero-cycle wiring: mark the instant.
      if (P.StartCycle < Cycles)
        Row[static_cast<size_t>(P.StartCycle)] = '|';
    } else {
      for (int64_t C = P.StartCycle; C < P.EndCycle && C < Cycles; ++C)
        Row[static_cast<size_t>(C)] = '#';
    }
    Out += Row + "\n";
  }
  return Out;
}
