//===- ScalarReplacement.cpp ----------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Transforms/ScalarReplacement.h"

#include "defacto/Analysis/UniformlyGenerated.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>

using namespace defacto;

namespace {

/// How one unique (array, subscripts) access site is handled.
enum class SitePlan {
  Keep,           ///< Stays a memory access.
  CseTemp,        ///< Multiple same-iteration reads share one load.
  InnerInvariant, ///< Register across the inner sweep (D[j] case).
  Chain,          ///< Outer-carried rotating chain (C[i] case).
  Window,         ///< Inner-carried sliding window (stencil case).
};

/// One unique access site in the innermost body.
struct Site {
  const ArrayDecl *Array = nullptr;
  std::vector<AffineExpr> Subs;
  unsigned FirstUseIdx = 0; // statement index of first appearance
  unsigned ReadCount = 0;
  bool IsRead = false;
  bool IsWritten = false;
  SitePlan Plan = SitePlan::Keep;

  // CseTemp / InnerInvariant register.
  ScalarDecl *Reg = nullptr;
  // InnerInvariant: nest position whose body hosts the load/store
  // (-1 = kernel top level).
  int HoistPos = -1;
  // Chain: registers, carrier nest position.
  std::vector<ScalarDecl *> Chain;
  int CarrierPos = -1;
  // Window: stream id and offset within the stream.
  int StreamId = -1;
  int64_t StreamOffset = 0;
};

/// A sliding-window stream of sites along the innermost loop.
struct Stream {
  std::vector<unsigned> SiteIdx; // indices into Sites
  int64_t MinOffset = 0;
  int64_t MaxOffset = 0;
  std::vector<ScalarDecl *> Window; // size MaxOffset - MinOffset + 1
  unsigned LeadSite = 0;            // site with MaxOffset
};

class ScalarReplacer {
public:
  ScalarReplacer(Kernel &K, const ScalarReplacementOptions &Opts)
      : K(K), Opts(Opts) {}

  ScalarReplacementStats run();

private:
  void collectSites();
  void classifySites();
  void buildStreams();
  void allocateRegisters();
  void rewriteBody();
  void insertCode();

  /// Positions (outermost first) of loops whose index appears in the
  /// site's subscripts.
  std::set<int> varyingPositions(const Site &S) const {
    std::set<int> Out;
    for (const AffineExpr &Sub : S.Subs)
      for (int Id : Sub.loopIds()) {
        int P = positionOf(Id);
        if (P >= 0)
          Out.insert(P);
      }
    return Out;
  }

  int positionOf(int LoopId) const {
    for (unsigned P = 0; P != Nest.size(); ++P)
      if (Nest[P]->loopId() == LoopId)
        return static_cast<int>(P);
    return -1;
  }

  /// Hash of a site key for the site index; exact equality is still
  /// checked on every probe, so collisions only cost a compare.
  static uint64_t hashSiteKey(const ArrayDecl *Array,
                              const std::vector<AffineExpr> &Subs) {
    uint64_t H = std::hash<const void *>()(Array);
    auto Mix = [&H](uint64_t V) {
      H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    };
    for (const AffineExpr &Sub : Subs) {
      Mix(static_cast<uint64_t>(Sub.constant()));
      for (const auto &[Id, Coeff] : Sub.terms()) {
        Mix(static_cast<uint64_t>(Id));
        Mix(static_cast<uint64_t>(Coeff));
      }
      Mix(0x5b5bu); // subscript separator
    }
    return H;
  }

  int findSite(const ArrayAccessExpr *A) const {
    auto It = SiteIndex.find(hashSiteKey(A->array(), A->subscripts()));
    if (It == SiteIndex.end())
      return -1;
    for (unsigned I : It->second)
      if (Sites[I].Array == A->array() && Sites[I].Subs == A->subscripts())
        return static_cast<int>(I);
    return -1;
  }

  ExprPtr makeAccess(const Site &S) const {
    return std::make_unique<ArrayAccessExpr>(S.Array, S.Subs);
  }

  /// Access for the lead site shifted by \p Delta iterations of the
  /// innermost loop.
  ExprPtr makeShiftedAccess(const Site &S, int64_t Delta) const {
    int InnerId = Nest.back()->loopId();
    std::vector<AffineExpr> Subs;
    AffineExpr Shift = AffineExpr::term(
        InnerId, 1, Delta * Nest.back()->step());
    for (const AffineExpr &Sub : S.Subs)
      Subs.push_back(Sub.substitute(InnerId, Shift));
    return std::make_unique<ArrayAccessExpr>(S.Array, std::move(Subs));
  }

  Kernel &K;
  const ScalarReplacementOptions &Opts;
  std::vector<ForStmt *> Nest;
  std::vector<Site> Sites;
  /// Site-key hash -> site indices, maintained by collectSites. Sites are
  /// append-only after collection, so the index stays valid through
  /// rewriteBody.
  std::unordered_map<uint64_t, std::vector<unsigned>> SiteIndex;
  std::vector<Stream> Streams;
  std::set<const ArrayDecl *> IneligibleArrays; // accessed under control flow
  std::set<const ArrayDecl *> WrittenArrays;
  std::set<const ArrayDecl *> NonUniformArrays;
  ScalarReplacementStats Stats;
};

ScalarReplacementStats ScalarReplacer::run() {
  ForStmt *Top = K.topLoop();
  if (!Top)
    return Stats;
  Nest = perfectNest(Top);

  // Arrays with accesses under conditional control flow or with
  // non-uniformly-generated aliasing writes are left alone.
  walkStmts(K.body(), [this](Stmt *S) {
    auto *If = dyn_cast<IfStmt>(S);
    if (!If)
      return;
    auto mark = [this](Expr *E) {
      walkExpr(E, [this](Expr *X) {
        if (auto *A = dyn_cast<ArrayAccessExpr>(X))
          IneligibleArrays.insert(A->array());
      });
    };
    mark(If->cond());
    walkExprsInStmts(If->thenBody(), mark);
    walkExprsInStmts(If->elseBody(), mark);
  });
  for (const AccessInfo &Info : collectArrayAccesses(K))
    if (Info.IsWrite)
      WrittenArrays.insert(Info.Access->array());
  UGPartition UG = computeUniformlyGenerated(K);
  for (const auto &A : K.arrays())
    if (!UG.isArrayUniform(A.get()))
      NonUniformArrays.insert(A.get());

  collectSites();
  classifySites();
  buildStreams();
  allocateRegisters();
  rewriteBody();
  insertCode();
  return Stats;
}

void ScalarReplacer::collectSites() {
  StmtList &Body = Nest.back()->body();
  for (unsigned Idx = 0; Idx != Body.size(); ++Idx) {
    auto *Assign = dyn_cast<AssignStmt>(Body[Idx].get());
    if (!Assign)
      continue;

    auto record = [&](const ArrayAccessExpr *A, bool IsWrite) {
      int SiteIdx = findSite(A);
      if (SiteIdx < 0) {
        Site S;
        S.Array = A->array();
        S.Subs = A->subscripts();
        S.FirstUseIdx = Idx;
        Sites.push_back(std::move(S));
        SiteIdx = static_cast<int>(Sites.size()) - 1;
        SiteIndex[hashSiteKey(A->array(), A->subscripts())].push_back(
            static_cast<unsigned>(SiteIdx));
      }
      Site &S = Sites[SiteIdx];
      if (IsWrite)
        S.IsWritten = true;
      else {
        S.IsRead = true;
        ++S.ReadCount;
      }
    };

    walkExpr(Assign->value(), [&record](Expr *E) {
      if (auto *A = dyn_cast<ArrayAccessExpr>(E))
        record(A, /*IsWrite=*/false);
    });
    if (auto *Dest = dyn_cast<ArrayAccessExpr>(Assign->dest()))
      record(Dest, /*IsWrite=*/true);
  }
}

void ScalarReplacer::classifySites() {
  int N = static_cast<int>(Nest.size());
  for (Site &S : Sites) {
    if (IneligibleArrays.count(S.Array))
      continue; // Keep.
    bool ArrayWritten = WrittenArrays.count(S.Array) != 0;
    std::set<int> Vary = varyingPositions(S);
    int DeepestVary = Vary.empty() ? -1 : *Vary.rbegin();

    if (DeepestVary < N - 1) {
      // Invariant in all loops deeper than DeepestVary: promote to a
      // register living across the inner sweep. Needs alias safety when
      // the array is written.
      if (ArrayWritten && NonUniformArrays.count(S.Array))
        continue;
      S.Plan = SitePlan::InnerInvariant;
      S.HoistPos = DeepestVary;
      continue;
    }

    // Varies with the innermost loop. The remaining shapes require a
    // read-only array.
    if (ArrayWritten)
      continue;

    // Outer-carried chain: the deepest loop the site is invariant in
    // carries the reuse; every deeper loop varies (guaranteed by taking
    // the deepest invariant position).
    int DeepestInvariant = -1;
    for (int P = N - 2; P >= 0; --P)
      if (!Vary.count(P)) {
        DeepestInvariant = P;
        break;
      }
    if (DeepestInvariant >= 0 && Opts.EnableOuterCarriedChains) {
      int64_t Len = 1;
      for (int P = DeepestInvariant + 1; P != N; ++P)
        Len *= Nest[P]->tripCount();
      if (Len >= 2 && Len <= Opts.MaxChainLength) {
        S.Plan = SitePlan::Chain;
        S.CarrierPos = DeepestInvariant;
        S.Chain.resize(Len, nullptr);
        continue;
      }
    }

    // CSE and windows are decided later (buildStreams); mark multi-read
    // sites as CSE candidates for now.
    if (S.ReadCount >= 2)
      S.Plan = SitePlan::CseTemp;
  }
}

void ScalarReplacer::buildStreams() {
  if (!Opts.EnableWindows || Nest.empty())
    return;
  int InnerId = Nest.back()->loopId();

  // Relative inner-iteration offset between two sites, when the shift is
  // the *unique* explanation of element equality (mirrors the paper's
  // consistent-distance requirement; S[i+j] vs S[i+j+1] is rejected
  // because an outer loop could also explain the offset).
  //
  // Two sites can belong to one stream only when every subscript pair
  // differs by a constant, i.e. the loop-term vectors match exactly
  // (AffineExpr is canonical). Sites are grouped by (array, per-dimension
  // terms) once, so the delta within a group is pure integer arithmetic
  // over precomputed per-subscript signatures — no AffineExpr
  // temporaries in the quadratic greedy loop below.
  struct SubSig {
    int64_t Constant = 0;
    int64_t InnerCoeff = 0;
    bool UsesOther = false;
  };
  std::vector<int> GroupOf(Sites.size(), -1);
  std::vector<std::vector<SubSig>> Sigs(Sites.size());
  std::map<std::pair<const ArrayDecl *,
                     std::vector<std::vector<std::pair<int, int64_t>>>>,
           int>
      Groups;
  for (unsigned I = 0; I != Sites.size(); ++I) {
    std::vector<std::vector<std::pair<int, int64_t>>> Terms;
    Terms.reserve(Sites[I].Subs.size());
    for (const AffineExpr &Sub : Sites[I].Subs) {
      Terms.push_back(Sub.terms());
      SubSig Sig;
      Sig.Constant = Sub.constant();
      Sig.InnerCoeff = Sub.coeff(InnerId);
      for (const auto &[Id, Coeff] : Sub.terms()) {
        (void)Coeff;
        if (Id != InnerId)
          Sig.UsesOther = true;
      }
      Sigs[I].push_back(Sig);
    }
    auto Group =
        Groups.emplace(std::make_pair(Sites[I].Array, std::move(Terms)),
                       static_cast<int>(Groups.size()));
    GroupOf[I] = Group.first->second;
  }

  auto streamDelta = [&](unsigned I, unsigned J) -> std::optional<int64_t> {
    if (GroupOf[I] != GroupOf[J])
      return std::nullopt; // Some dimension's difference is not constant.
    std::optional<int64_t> Delta;
    const std::vector<SubSig> &A = Sigs[I];
    const std::vector<SubSig> &B = Sigs[J];
    for (unsigned D = 0; D != A.size(); ++D) {
      int64_t DiffC = B[D].Constant - A[D].Constant;
      if (A[D].UsesOther) {
        // Mixed dimension: only a zero offset is uniquely explained.
        if (DiffC != 0)
          return std::nullopt;
        continue;
      }
      if (A[D].InnerCoeff == 0) {
        if (DiffC != 0)
          return std::nullopt;
        continue;
      }
      int64_t Scale = A[D].InnerCoeff * Nest.back()->step();
      if (DiffC % Scale != 0)
        return std::nullopt;
      int64_t D1 = DiffC / Scale;
      if (Delta && *Delta != D1)
        return std::nullopt;
      Delta = D1;
    }
    return Delta ? Delta : std::optional<int64_t>(0);
  };

  // Greedy stream construction over the window-eligible sites.
  std::vector<int> StreamOf(Sites.size(), -1);
  for (unsigned I = 0; I != Sites.size(); ++I) {
    Site &SI = Sites[I];
    if (SI.Plan != SitePlan::Keep && SI.Plan != SitePlan::CseTemp)
      continue;
    if (IneligibleArrays.count(SI.Array) || WrittenArrays.count(SI.Array))
      continue;
    // Must vary with the innermost loop to slide.
    bool VariesInner = false;
    for (const AffineExpr &Sub : SI.Subs)
      if (Sub.usesLoop(InnerId))
        VariesInner = true;
    if (!VariesInner)
      continue;

    if (StreamOf[I] < 0) {
      Stream NewStream;
      NewStream.SiteIdx.push_back(I);
      StreamOf[I] = static_cast<int>(Streams.size());
      Streams.push_back(std::move(NewStream));
      Sites[I].StreamOffset = 0;
    }
    Stream &St = Streams[StreamOf[I]];
    for (unsigned J = I + 1; J != Sites.size(); ++J) {
      Site &SJ = Sites[J];
      if (StreamOf[J] >= 0)
        continue;
      if (SJ.Plan != SitePlan::Keep && SJ.Plan != SitePlan::CseTemp)
        continue;
      auto Delta = streamDelta(I, J);
      if (!Delta)
        continue;
      StreamOf[J] = StreamOf[I];
      SJ.StreamOffset = SI.StreamOffset + *Delta;
      St.SiteIdx.push_back(J);
    }
  }

  // Keep only streams that provide sliding reuse (span >= 1) and fit.
  std::vector<Stream> Kept;
  for (Stream &St : Streams) {
    int64_t Min = Sites[St.SiteIdx.front()].StreamOffset;
    int64_t Max = Min;
    for (unsigned I : St.SiteIdx) {
      Min = std::min(Min, Sites[I].StreamOffset);
      Max = std::max(Max, Sites[I].StreamOffset);
    }
    int64_t Span = Max - Min + 1;
    if (Span < 2 || Span > static_cast<int64_t>(Opts.MaxChainLength))
      continue;
    St.MinOffset = Min;
    St.MaxOffset = Max;
    for (unsigned I : St.SiteIdx)
      if (Sites[I].StreamOffset == Max)
        St.LeadSite = I;
    int Id = static_cast<int>(Kept.size());
    for (unsigned I : St.SiteIdx) {
      Sites[I].Plan = SitePlan::Window;
      Sites[I].StreamId = Id;
    }
    Kept.push_back(std::move(St));
  }
  Streams = std::move(Kept);
}

void ScalarReplacer::allocateRegisters() {
  for (Site &S : Sites) {
    switch (S.Plan) {
    case SitePlan::Keep:
      if (S.IsRead)
        Stats.LoadsKept += S.ReadCount;
      if (S.IsWritten)
        ++Stats.StoresKept;
      break;
    case SitePlan::CseTemp:
      S.Reg = K.makeTempScalar(S.Array->name() + "_t",
                               S.Array->elementType());
      ++Stats.RegistersAllocated;
      ++Stats.LoadsKept; // The single shared load stays in the body.
      Stats.LoadsRemoved += S.ReadCount - 1;
      break;
    case SitePlan::InnerInvariant:
      S.Reg = K.makeTempScalar(S.Array->name() + "_r",
                               S.Array->elementType());
      ++Stats.RegistersAllocated;
      if (S.IsRead)
        Stats.LoadsRemoved += S.ReadCount;
      if (S.IsWritten)
        ++Stats.StoresRemoved;
      break;
    case SitePlan::Chain: {
      for (auto &Reg : S.Chain) {
        Reg = K.makeTempScalar(S.Array->name() + "_c",
                               S.Array->elementType());
        ++Stats.RegistersAllocated;
      }
      ++Stats.ChainsCreated;
      Stats.LoadsRemoved += S.ReadCount;
      break;
    }
    case SitePlan::Window:
      // Window registers are allocated per stream below.
      break;
    }
  }
  for (Stream &St : Streams) {
    const Site &Lead = Sites[St.LeadSite];
    int64_t Span = St.MaxOffset - St.MinOffset + 1;
    St.Window.resize(Span);
    for (auto &Reg : St.Window) {
      Reg = K.makeTempScalar(Lead.Array->name() + "_w",
                             Lead.Array->elementType());
      ++Stats.RegistersAllocated;
    }
    ++Stats.WindowsCreated;
    ++Stats.LoadsKept; // One leading-edge load per iteration.
    for (unsigned I : St.SiteIdx)
      Stats.LoadsRemoved += Sites[I].ReadCount;
    --Stats.LoadsRemoved; // Minus the load that stays.
  }
}

void ScalarReplacer::rewriteBody() {
  StmtList &Body = Nest.back()->body();
  for (StmtPtr &SP : Body) {
    auto *Assign = dyn_cast<AssignStmt>(SP.get());
    if (!Assign)
      continue;
    rewriteExpr(Assign->valueRef(), [this](ExprPtr &E) {
      auto *A = dyn_cast<ArrayAccessExpr>(E.get());
      if (!A)
        return;
      int Idx = findSite(A);
      if (Idx < 0)
        return;
      const Site &S = Sites[Idx];
      switch (S.Plan) {
      case SitePlan::Keep:
        return;
      case SitePlan::CseTemp:
      case SitePlan::InnerInvariant:
        E = std::make_unique<ScalarRefExpr>(S.Reg);
        return;
      case SitePlan::Chain:
        E = std::make_unique<ScalarRefExpr>(S.Chain.front());
        return;
      case SitePlan::Window: {
        const Stream &St = Streams[S.StreamId];
        E = std::make_unique<ScalarRefExpr>(
            St.Window[S.StreamOffset - St.MinOffset]);
        return;
      }
      }
    });
    if (auto *Dest = dyn_cast<ArrayAccessExpr>(Assign->dest())) {
      int Idx = findSite(Dest);
      if (Idx >= 0 && Sites[Idx].Plan == SitePlan::InnerInvariant)
        Assign->setDest(std::make_unique<ScalarRefExpr>(Sites[Idx].Reg));
    }
  }
}

void ScalarReplacer::insertCode() {
  StmtList &Body = Nest.back()->body();
  StmtList NewBody;

  // 1. Guarded chain loads, grouped by carrier loop (Figure 1(c)'s
  //    `if (j == 0) { c_0_0 = C[i]; ... }`).
  std::map<int, std::vector<StmtPtr>> GuardedLoads; // carrier pos -> loads
  for (Site &S : Sites) {
    if (S.Plan != SitePlan::Chain)
      continue;
    GuardedLoads[S.CarrierPos].push_back(std::make_unique<AssignStmt>(
        std::make_unique<ScalarRefExpr>(S.Chain.front()), makeAccess(S)));
  }
  for (auto &[CarrierPos, Loads] : GuardedLoads) {
    ForStmt *Carrier = Nest[CarrierPos];
    auto Guard = std::make_unique<IfStmt>(std::make_unique<BinaryExpr>(
        BinaryOp::CmpEq, std::make_unique<LoopIndexExpr>(Carrier->loopId()),
        std::make_unique<IntLitExpr>(Carrier->lower())));
    for (StmtPtr &L : Loads)
      Guard->thenBody().push_back(std::move(L));
    NewBody.push_back(std::move(Guard));
  }

  // 2. Window warm-up loads, guarded on the innermost loop's first
  //    iteration, plus the unguarded leading-edge load.
  ForStmt *Inner = Nest.back();
  for (Stream &St : Streams) {
    const Site &Lead = Sites[St.LeadSite];
    auto Guard = std::make_unique<IfStmt>(std::make_unique<BinaryExpr>(
        BinaryOp::CmpEq, std::make_unique<LoopIndexExpr>(Inner->loopId()),
        std::make_unique<IntLitExpr>(Inner->lower())));
    int64_t Span = St.MaxOffset - St.MinOffset + 1;
    for (int64_t T = 0; T + 1 < Span; ++T) {
      // Register W[T] holds the element at relative offset MinOffset + T;
      // the lead site's subscripts sit at MaxOffset.
      int64_t Delta = St.MinOffset + T - St.MaxOffset;
      Guard->thenBody().push_back(std::make_unique<AssignStmt>(
          std::make_unique<ScalarRefExpr>(St.Window[T]),
          makeShiftedAccess(Lead, Delta)));
    }
    NewBody.push_back(std::move(Guard));
    NewBody.push_back(std::make_unique<AssignStmt>(
        std::make_unique<ScalarRefExpr>(St.Window.back()),
        makeAccess(Lead)));
  }

  // 3. Original statements, with CSE temp loads before first use. The
  //    loads are bucketed by first-use index up front (site order within
  //    a bucket preserved) so this is linear, not |Body| x |Sites|.
  std::vector<std::vector<Site *>> CseLoadsAt(Body.size());
  for (Site &S : Sites)
    if (S.Plan == SitePlan::CseTemp)
      CseLoadsAt[S.FirstUseIdx].push_back(&S);
  NewBody.reserve(NewBody.size() + Body.size() + Sites.size());
  for (unsigned Idx = 0; Idx != Body.size(); ++Idx) {
    for (Site *S : CseLoadsAt[Idx])
      NewBody.push_back(std::make_unique<AssignStmt>(
          std::make_unique<ScalarRefExpr>(S->Reg), makeAccess(*S)));
    NewBody.push_back(std::move(Body[Idx]));
  }

  // 4. Rotations at the end of the body.
  for (Site &S : Sites)
    if (S.Plan == SitePlan::Chain)
      NewBody.push_back(std::make_unique<RotateStmt>(
          std::vector<const ScalarDecl *>(S.Chain.begin(), S.Chain.end())));
  for (Stream &St : Streams)
    NewBody.push_back(std::make_unique<RotateStmt>(
        std::vector<const ScalarDecl *>(St.Window.begin(),
                                        St.Window.end())));

  Body = std::move(NewBody);

  // 5. Inner-invariant loads/stores hoisted to the carrier level.
  std::map<int, std::vector<Site *>> ByLevel;
  for (Site &S : Sites)
    if (S.Plan == SitePlan::InnerInvariant)
      ByLevel[S.HoistPos].push_back(&S);
  for (auto &[Level, LevelSites] : ByLevel) {
    StmtList *Host =
        Level < 0 ? &K.body() : &Nest[Level]->body();
    // Loads go before everything, in site order; stores after everything.
    std::vector<StmtPtr> Loads, Stores;
    for (Site *S : LevelSites) {
      if (S->IsRead)
        Loads.push_back(std::make_unique<AssignStmt>(
            std::make_unique<ScalarRefExpr>(S->Reg), makeAccess(*S)));
      if (S->IsWritten)
        Stores.push_back(std::make_unique<AssignStmt>(
            makeAccess(*S), std::make_unique<ScalarRefExpr>(S->Reg)));
    }
    for (auto It = Loads.rbegin(); It != Loads.rend(); ++It)
      Host->insert(Host->begin(), std::move(*It));
    for (StmtPtr &S : Stores)
      Host->push_back(std::move(S));
  }
}

} // namespace

ScalarReplacementStats
defacto::scalarReplace(Kernel &K, const ScalarReplacementOptions &Opts) {
  return ScalarReplacer(K, Opts).run();
}
