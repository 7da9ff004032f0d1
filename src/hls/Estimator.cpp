//===- Estimator.cpp ------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/HLS/Estimator.h"

#include "defacto/Analysis/ValueRange.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/IR/IRVerifier.h"
#include "defacto/Support/Cancellation.h"
#include "defacto/Support/ErrorHandling.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Table.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>

using namespace defacto;

std::string SynthesisEstimate::toString() const {
  std::string Out;
  Out += "cycles=" + std::to_string(Cycles);
  Out += " slices=" + formatDouble(Slices, 0);
  Out += " regs=" + std::to_string(Registers);
  Out += " F=" + formatDouble(FetchRate, 2);
  Out += " C=" + formatDouble(ConsumeRate, 2);
  Out += " balance=" + formatDouble(Balance, 3);
  return Out;
}

namespace {

/// Whole-subtree totals accumulated by the recursive walk.
struct Totals {
  double Joint = 0;
  double MemOnly = 0;
  double CompOnly = 0;
  double Bits = 0;
  uint64_t States = 0;
  std::map<OpShape, unsigned> PeakUnits;

  void mergeUnits(const std::map<OpShape, unsigned> &Other) {
    for (const auto &[Shape, N] : Other) {
      unsigned &Slot = PeakUnits[Shape];
      Slot = std::max(Slot, N);
    }
  }
};

/// Key of the per-thread schedule memo: a segment's structural blob
/// (SegmentEncoder), compared exactly, never just by hash.
using ScheduleMemoKey = std::vector<uint64_t>;

struct ScheduleMemoKeyHash {
  size_t operator()(const ScheduleMemoKey &Blob) const {
    uint64_t H = 1469598103934665603ull;
    for (uint64_t V : Blob) {
      H ^= V;
      H *= 1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

/// Serializes one straight-line segment into the u64 blob that determines
/// its DFG — and therefore its schedule — exactly. Replicated code is what
/// makes the memo pay: unrolled copies and peeled prologues differ
/// only in which loop indices and scalar temporaries they name, neither
/// of which the DFG shape depends on. Scalars are alpha-numbered in
/// encounter order (their definedness dynamics and widths are encoded, so
/// alpha-equivalent segments build identical DFGs node for node); array
/// accesses contribute element width and scheduling port (subscripts are
/// address generation, free in the DFG); literal values are encoded
/// because operand widths and the const-multiply classification read
/// them. Sound only when widths come from declarations or are uniform —
/// range-inferred widths are whole-kernel state, and those platforms
/// schedule every segment afresh.
class SegmentEncoder {
public:
  SegmentEncoder(const std::function<int(const ArrayAccessExpr *)> &PortOf)
      : PortOf(PortOf) {}

  std::vector<uint64_t> encode(const std::vector<const Stmt *> &Segment,
                               const TargetPlatform &P) {
    Blob.reserve(Segment.size() * 16 + 8);
    uint64_t PeriodBits = 0;
    std::memcpy(&PeriodBits, &P.ClockPeriodNs, sizeof(PeriodBits));
    Blob.push_back(PeriodBits);
    Blob.push_back(P.NumMemories);
    Blob.push_back(P.Timing.ReadLatencyCycles);
    Blob.push_back(P.Timing.WriteLatencyCycles);
    Blob.push_back(P.Timing.Pipelined);
    Blob.push_back(P.OperatorChaining);
    Blob.push_back(static_cast<uint64_t>(P.Widths));
    for (const Stmt *S : Segment)
      encodeStmt(S);
    return std::move(Blob);
  }

private:
  void put(uint64_t V) { Blob.push_back(V); }

  uint64_t alphaId(const ScalarDecl *D) {
    auto [It, Inserted] = Alpha.emplace(D, Alpha.size());
    (void)Inserted;
    return It->second;
  }

  void encodeExpr(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      put(1);
      put(static_cast<uint64_t>(cast<IntLitExpr>(E)->value()));
      return;
    case Expr::Kind::LoopIndex:
      put(2); // Which counter it is never reaches the DFG.
      return;
    case Expr::Kind::ScalarRef: {
      const ScalarDecl *D = cast<ScalarRefExpr>(E)->decl();
      put(3);
      put(alphaId(D));
      put(bitWidth(D->type()));
      return;
    }
    case Expr::Kind::ArrayAccess: {
      const auto *A = cast<ArrayAccessExpr>(E);
      put(4);
      put(bitWidth(A->array()->elementType()));
      put(static_cast<uint64_t>(static_cast<int64_t>(PortOf(A))));
      return;
    }
    case Expr::Kind::Unary:
      put(5);
      put(static_cast<uint64_t>(cast<UnaryExpr>(E)->op()));
      encodeExpr(cast<UnaryExpr>(E)->operand());
      return;
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      put(6);
      put(static_cast<uint64_t>(B->op()));
      encodeExpr(B->lhs());
      encodeExpr(B->rhs());
      return;
    }
    case Expr::Kind::Select: {
      const auto *S = cast<SelectExpr>(E);
      put(7);
      encodeExpr(S->cond());
      encodeExpr(S->trueValue());
      encodeExpr(S->falseValue());
      return;
    }
    }
    defacto_unreachable("unknown expression kind");
  }

  void encodeStmt(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      // Value before dest, mirroring the DFG build order so alpha ids
      // line up with ScalarDef dynamics.
      put(10);
      encodeExpr(A->value());
      if (const auto *SR = dyn_cast<ScalarRefExpr>(A->dest())) {
        put(11);
        put(alphaId(SR->decl()));
        put(bitWidth(SR->decl()->type()));
      } else {
        const auto *AA = cast<ArrayAccessExpr>(A->dest());
        put(12);
        put(bitWidth(AA->array()->elementType()));
        put(static_cast<uint64_t>(static_cast<int64_t>(PortOf(AA))));
      }
      return;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      put(13);
      encodeExpr(I->cond());
      for (const StmtPtr &T : I->thenBody())
        encodeStmt(T.get());
      put(14);
      for (const StmtPtr &T : I->elseBody())
        encodeStmt(T.get());
      put(15);
      return;
    }
    case Stmt::Kind::Rotate:
      return; // Free at the clock edge; contributes nothing to the DFG.
    case Stmt::Kind::For:
      defacto_unreachable("loops are not part of straight-line segments");
    }
    defacto_unreachable("unknown statement kind");
  }

  const std::function<int(const ArrayAccessExpr *)> &PortOf;
  std::vector<uint64_t> Blob;
  std::unordered_map<const ScalarDecl *, uint64_t> Alpha;
};

/// Per-thread schedule memo keyed by the structural blob: the unrolled
/// bodies a DSE sweep schedules repeat the same straight-line segments
/// across candidates, and a hit skips both the DFG construction and the
/// list scheduler, returning the bit-identical SegmentSchedule.
SegmentSchedule memoizedScheduleStructural(
    const std::vector<const Stmt *> &Segment, const TargetPlatform &P,
    const std::function<int(const ArrayAccessExpr *)> &PortOf,
    const std::function<unsigned(const Expr *)> &WidthOf) {
  constexpr size_t MaxMemoEntries = 2048;
  thread_local std::unordered_map<ScheduleMemoKey, SegmentSchedule,
                                  ScheduleMemoKeyHash>
      Memo;
  ScheduleMemoKey Key = SegmentEncoder(PortOf).encode(Segment, P);
  auto It = Memo.find(Key);
  if (It != Memo.end())
    return It->second;
  SegmentSchedule Sched;
  {
    DEFACTO_SPAN("estimator.dfg");
    DFG Graph = buildSegmentDFG(Segment, PortOf, WidthOf);
    Sched = scheduleSegment(Graph, P);
  }
  // A watchdog cancellation can truncate the schedule mid-walk; never
  // memoize a potentially partial result.
  if (!currentCancelled()) {
    if (Memo.size() >= MaxMemoEntries)
      Memo.clear();
    Memo.emplace(std::move(Key), Sched);
  }
  return Sched;
}

class EstimatorWalk {
public:
  EstimatorWalk(const Kernel &K, const TargetPlatform &P,
                std::vector<RegionReport> *Breakdown)
      : K(K), P(P), Breakdown(Breakdown) {
    if (P.Widths == TargetPlatform::WidthModel::Inferred)
      Ranges = std::make_unique<ValueRangeAnalysis>(K);
    // Port assignment: the data layout pass records physical ids; for
    // kernels estimated without layout, assign round-robin on first use.
    // When every array already carries a physical id (layout ran), the
    // first-use order is irrelevant, so the map is filled straight from
    // the declarations instead of walking the body.
    bool AllPlaced = true;
    for (const auto &A : K.arrays())
      if (A->physicalMemId() < 0) {
        AllPlaced = false;
        break;
      }
    if (AllPlaced) {
      for (const auto &A : K.arrays())
        Ports[A.get()] = A->physicalMemId();
      return;
    }
    int Next = 0;
    unsigned M = P.NumMemories == 0 ? 1 : P.NumMemories;
    walkStmts(const_cast<Kernel &>(K).body(), [&](Stmt *S) {
      auto visit = [&](Expr *E) {
        walkExpr(E, [&](Expr *X) {
          auto *A = dyn_cast<ArrayAccessExpr>(X);
          if (!A || Ports.count(A->array()))
            return;
          int Port = A->array()->physicalMemId();
          if (Port < 0)
            Port = Next++ % static_cast<int>(M);
          Ports[A->array()] = Port;
        });
      };
      if (auto *A = dyn_cast<AssignStmt>(S)) {
        visit(A->dest());
        visit(A->value());
      } else if (auto *I = dyn_cast<IfStmt>(S)) {
        visit(I->cond());
      }
    });
  }

  Totals run() { return walkList(K.body(), "", 1); }

private:
  Totals walkList(const StmtList &Stmts, const std::string &Path,
                  uint64_t Executions) {
    Totals T;
    std::vector<const Stmt *> Segment;
    auto flush = [&]() {
      if (Segment.empty())
        return;
      std::function<unsigned(const Expr *)> WidthOf;
      if (Ranges)
        WidthOf = [this](const Expr *E) { return Ranges->widthOf(E); };
      else if (P.Widths == TargetPlatform::WidthModel::Uniform32)
        WidthOf = [](const Expr *) { return 32u; };
      std::function<int(const ArrayAccessExpr *)> PortFn =
          [this](const ArrayAccessExpr *A) {
            if (A->steadyStatePort() >= 0)
              return A->steadyStatePort() %
                     static_cast<int>(P.NumMemories ? P.NumMemories : 1);
            auto It = Ports.find(A->array());
            return It == Ports.end() ? 0 : It->second;
          };
      SegmentSchedule Sched;
      if (!Ranges) {
        // Structural memo: alpha-equivalent segments (the common case
        // across unrolled candidates) share one schedule without ever
        // building the DFG. Range-inferred widths depend on whole-kernel
        // state, so those platforms schedule the segment afresh.
        Sched = memoizedScheduleStructural(Segment, P, PortFn, WidthOf);
      } else {
        DEFACTO_SPAN("estimator.dfg");
        Sched = scheduleSegment(buildSegmentDFG(Segment, PortFn, WidthOf), P);
      }
      T.Joint += Sched.JointCycles;
      T.MemOnly += Sched.MemOnlyCycles;
      T.CompOnly += Sched.CompOnlyCycles;
      T.Bits += Sched.BitsTransferred;
      T.States += Sched.JointCycles;
      T.mergeUnits(Sched.PeakUnits);
      if (Breakdown)
        Breakdown->push_back({Path.empty() ? "<top>" : Path, Executions,
                              Sched.JointCycles, Sched.MemReads,
                              Sched.MemWrites});
      Segment.clear();
    };

    for (const StmtPtr &SP : Stmts) {
      // Cooperative hang-watchdog poll: once cancelled, stop descending
      // — the partial totals are discarded by estimateDesignChecked.
      if (currentCancelled())
        break;
      if (const auto *F = dyn_cast<ForStmt>(SP.get())) {
        flush();
        std::string ChildPath =
            Path.empty() ? F->indexName() : Path + "/" + F->indexName();
        Totals Child =
            walkList(F->body(), ChildPath,
                     Executions * static_cast<uint64_t>(F->tripCount()));
        double Trip = static_cast<double>(F->tripCount());
        T.Joint += Trip * (Child.Joint + P.LoopOverheadCycles);
        T.MemOnly += Trip * Child.MemOnly;
        T.CompOnly += Trip * Child.CompOnly;
        T.Bits += Trip * Child.Bits;
        T.States += Child.States + 2; // Loop entry/exit control states.
        T.mergeUnits(Child.PeakUnits);
        continue;
      }
      Segment.push_back(SP.get());
    }
    flush();
    return T;
  }

  const Kernel &K;
  const TargetPlatform &P;
  std::vector<RegionReport> *Breakdown;
  std::unique_ptr<ValueRangeAnalysis> Ranges;
  std::map<const ArrayDecl *, int> Ports;
};

} // namespace

SynthesisEstimate
defacto::estimateDesign(const Kernel &K, const TargetPlatform &Platform,
                        std::vector<RegionReport> *Breakdown) {
  DEFACTO_SPAN("estimator.estimate");
  if (Breakdown)
    Breakdown->clear();
  Totals T = EstimatorWalk(K, Platform, Breakdown).run();

  SynthesisEstimate E;
  E.Cycles = static_cast<uint64_t>(std::llround(T.Joint));
  E.MemOnlyCycles = T.MemOnly;
  E.CompOnlyCycles = T.CompOnly;
  E.BitsTransferred = T.Bits;
  E.FsmStates = T.States;
  E.Units = T.PeakUnits;

  if (T.Bits > 0 && T.MemOnly > 0)
    E.FetchRate = T.Bits / T.MemOnly;
  if (T.Bits > 0 && T.CompOnly > 0)
    E.ConsumeRate = T.Bits / T.CompOnly;
  if (T.MemOnly > 0)
    E.Balance = T.CompOnly / T.MemOnly;
  else
    E.Balance = HUGE_VAL; // No memory traffic: trivially compute bound.

  // Registers: every scalar referenced in the body is a datapath
  // register (source scalars and compiler temporaries alike). One pass
  // collects the register set, the register area and the rotation-mux
  // area together. Every area term is a dyadic rational of modest
  // magnitude, so each partial sum is exactly representable and the
  // summation order cannot change the result.
  std::unordered_set<const ScalarDecl *> Used;
  double RegisterArea = 0;
  double MuxArea = 0;
  auto noteUse = [&](const ScalarDecl *D) {
    if (Used.insert(D).second)
      RegisterArea += registerAreaSlices(bitWidth(D->type()));
  };
  walkStmts(const_cast<Kernel &>(K).body(), [&](Stmt *S) {
    auto visit = [&](Expr *Ex) {
      walkExpr(Ex, [&](Expr *X) {
        if (auto *SR = dyn_cast<ScalarRefExpr>(X))
          noteUse(SR->decl());
      });
    };
    if (auto *A = dyn_cast<AssignStmt>(S)) {
      visit(A->dest());
      visit(A->value());
    } else if (auto *I = dyn_cast<IfStmt>(S)) {
      visit(I->cond());
    } else if (auto *R = dyn_cast<RotateStmt>(S)) {
      // Rotation paths add a feedback mux per register in each chain.
      for (const ScalarDecl *D : R->chain()) {
        noteUse(D);
        MuxArea += operatorAreaSlices(OpClass::Mux, bitWidth(D->type()));
      }
    }
  });
  E.Registers = Used.size();

  double Area = 0;
  for (const auto &[Shape, N] : T.PeakUnits)
    Area += N * operatorAreaSlices(Shape.first, Shape.second);
  Area += RegisterArea;
  Area += MuxArea;
  // Memory interfaces: address counters and data registers per port.
  Area += 25.0 * Platform.NumMemories;
  // Control FSM: state register, next-state logic per state.
  Area += 40.0 + 1.5 * static_cast<double>(T.States);
  E.Slices = Area;
  return E;
}

Expected<SynthesisEstimate>
defacto::estimateDesignChecked(const Kernel &K,
                               const TargetPlatform &Platform) {
  std::vector<std::string> Problems = verifyKernel(K);
  if (!Problems.empty())
    return Status::error(ErrorCode::MalformedIR,
                         "cannot estimate invalid kernel: " + Problems.front());
  SynthesisEstimate Est = estimateDesign(K, Platform);
  // A watchdog cancellation mid-walk leaves partial totals; report the
  // cancellation rather than a garbage estimate.
  if (Status Cancel = currentCancelStatus(); !Cancel.isOk())
    return Cancel;
  if (Est.Cycles == 0 || Est.Slices <= 0.0)
    return Status::error(ErrorCode::EstimationFailed,
                         "estimator returned a degenerate design (cycles=" +
                             std::to_string(Est.Cycles) + ")");
  return Est;
}
