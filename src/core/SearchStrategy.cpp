//===- SearchStrategy.cpp - Registry and the sampling baselines -----------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/SearchStrategy.h"

#include "defacto/Support/Random.h"

#include <algorithm>
#include <set>

using namespace defacto;

SearchStrategy::~SearchStrategy() = default;

//===--------------------------------------------------------------------===//
// StrategyRegistry
//===--------------------------------------------------------------------===//

StrategyRegistry::StrategyRegistry() {
  Strategies.emplace(
      "guided",
      RegisteredStrategy{"the paper's Figure-2 balance-guided walk",
                         [] { return createGuidedStrategy(); }});
  Strategies.emplace(
      "exhaustive",
      RegisteredStrategy{"every divisor vector; fastest fitting design",
                         [] { return createExhaustiveStrategy(); }});
  Strategies.emplace(
      "random",
      RegisteredStrategy{"deterministic random sampling (24 designs)",
                         [] { return createRandomStrategy(); }});
  Strategies.emplace(
      "hillclimb",
      RegisteredStrategy{"steepest-descent neighborhood search from Uinit",
                         [] { return createHillClimbStrategy(); }});
  Strategies.emplace(
      "portfolio",
      RegisteredStrategy{
          "guided + hillclimb + random under split budgets; best wins",
          [] { return createPortfolioStrategy(); }});
  Strategies.emplace(
      "guided+tile",
      RegisteredStrategy{
          "guided walk, then interchange/tile refinement around the optimum",
          [] { return createGuidedTileStrategy(); }});
}

StrategyRegistry &StrategyRegistry::instance() {
  static StrategyRegistry R;
  return R;
}

bool StrategyRegistry::add(const std::string &Name,
                           const std::string &Description,
                           Factory MakeStrategy) {
  std::lock_guard<std::mutex> Lock(M);
  return Strategies
      .emplace(Name, RegisteredStrategy{Description, std::move(MakeStrategy)})
      .second;
}

std::unique_ptr<SearchStrategy>
StrategyRegistry::create(const std::string &Name) const {
  Factory Make;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Strategies.find(Name);
    if (It == Strategies.end())
      return nullptr;
    Make = It->second.Make;
  }
  return Make();
}

bool StrategyRegistry::contains(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  return Strategies.count(Name) != 0;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Names;
  for (const auto &[Name, Entry] : Strategies)
    Names.push_back(Name);
  return Names; // std::map iterates sorted
}

std::string StrategyRegistry::describe() const {
  std::lock_guard<std::mutex> Lock(M);
  size_t Widest = 0;
  for (const auto &[Name, Entry] : Strategies)
    Widest = std::max(Widest, Name.size());
  std::string Out;
  for (const auto &[Name, Entry] : Strategies) {
    Out += "  " + Name + std::string(Widest - Name.size() + 2, ' ') +
           Entry.Description + "\n";
  }
  return Out;
}

//===--------------------------------------------------------------------===//
// Candidate-list baselines: exhaustive and random share one reducer.
//===--------------------------------------------------------------------===//

namespace {

/// Evaluates \p Candidates through the service (fanned out on the worker
/// pool when one is configured, reduced in candidate order so the result
/// matches the sequential run) and selects the fastest fitting design;
/// among designs within 5% of its cycles, the smallest.
ExplorationResult pickBest(const SearchContext &SC,
                           const std::vector<UnrollVector> &Candidates,
                           const char *Role) {
  EvaluationService &Ex = SC.Eval;
  ExplorationResult Res;
  Res.Strategy = Role;
  Res.Sat = Ex.saturation();
  Res.FullSpaceSize = Ex.space().fullSize();

  // The baseline is evaluated too; fan it out unless the list already
  // holds it (the exhaustive list starts with it).
  const UnrollVector &BaseU = Ex.space().base();
  if (std::find(Candidates.begin(), Candidates.end(), BaseU) !=
      Candidates.end()) {
    Ex.fanOut(Candidates);
  } else {
    std::vector<UnrollVector> WithBase{BaseU};
    WithBase.insert(WithBase.end(), Candidates.begin(), Candidates.end());
    Ex.fanOut(WithBase);
  }

  if (auto Base = Ex.evaluate(Ex.space().base())) {
    Res.BaselineEstimate = *Base;
    Ex.traceDecision(Ex.space().base(), *Base, "baseline", "baseline");
  }

  for (const UnrollVector &U : Candidates) {
    auto Est = Ex.evaluate(U);
    if (!Est)
      continue;
    Res.Visited.push_back({U, *Est, Role, DesignPoint(U)});
    Ex.traceDecision(U, *Est, Role, "candidate");
  }

  double Capacity = Ex.options().Platform.CapacitySlices;
  const EvaluatedDesign *Fastest = nullptr;
  for (const EvaluatedDesign &D : Res.Visited) {
    if (D.Estimate.Slices > Capacity)
      continue;
    if (!Fastest || D.Estimate.Cycles < Fastest->Estimate.Cycles)
      Fastest = &D;
  }
  const EvaluatedDesign *Best = Fastest;
  if (Fastest) {
    for (const EvaluatedDesign &D : Res.Visited) {
      if (D.Estimate.Slices > Capacity)
        continue;
      if (D.Estimate.Cycles <=
              static_cast<uint64_t>(Fastest->Estimate.Cycles * 1.05) &&
          D.Estimate.Slices < Best->Estimate.Slices)
        Best = &D;
    }
  }
  if (Best) {
    Res.Selected = Best->U;
    Res.SelectedEstimate = Best->Estimate;
  } else {
    Res.Selected = Ex.space().base();
    Res.SelectedEstimate = Res.BaselineEstimate;
  }
  Res.Failures = Ex.failures();
  Res.DroppedFailures = Ex.failuresDropped();
  Res.Degraded = !Res.Failures.empty();
  Res.EvaluationsUsed = Ex.evaluationsUsed();
  for (const EvaluationFailure &F : Res.Failures)
    Res.Trace += "FAIL " + unrollVectorToString(F.U) + " [" + Role + "] " +
                 F.Error.toString() + "\n";
  return Res;
}

class ExhaustiveStrategy : public SearchStrategy {
public:
  std::string name() const override { return "exhaustive"; }
  ExplorationResult search(const SearchContext &SC) override {
    return pickBest(SC, SC.Eval.space().allCandidates(), "exhaustive");
  }
};

class RandomStrategy : public SearchStrategy {
public:
  RandomStrategy(unsigned Samples, uint64_t Seed)
      : Samples(Samples), Seed(Seed) {}
  std::string name() const override { return "random"; }
  ExplorationResult search(const SearchContext &SC) override {
    std::vector<UnrollVector> All = SC.Eval.space().allCandidates();
    SplitMix64 Rng(Seed);
    std::vector<UnrollVector> Picked;
    std::set<uint64_t> Chosen;
    while (Picked.size() < Samples && Chosen.size() < All.size()) {
      uint64_t I = Rng.nextBelow(All.size());
      if (Chosen.insert(I).second)
        Picked.push_back(All[I]);
    }
    return pickBest(SC, Picked, "random");
  }

private:
  unsigned Samples;
  uint64_t Seed;
};

} // namespace

std::unique_ptr<SearchStrategy> defacto::createExhaustiveStrategy() {
  return std::make_unique<ExhaustiveStrategy>();
}

std::unique_ptr<SearchStrategy> defacto::createRandomStrategy(unsigned Samples,
                                                              uint64_t Seed) {
  return std::make_unique<RandomStrategy>(Samples, Seed);
}

ExplorationResult defacto::runSearch(SearchStrategy &S,
                                     EvaluationService &Eval) {
  SearchContext SC{Eval.source(), Eval.options(), Eval};
  ExplorationResult Res = S.search(SC);
  Res.CacheHits += Eval.cacheHits();
  Res.CacheMisses += Eval.cacheMisses();
  return Res;
}

Expected<ExplorationResult>
defacto::exploreWithStrategy(std::shared_ptr<const KernelSession> Session,
                             const ExplorerOptions &Opts,
                             const std::string &Name) {
  std::unique_ptr<SearchStrategy> S = StrategyRegistry::instance().create(Name);
  if (!S)
    return Status::error(ErrorCode::InvalidInput,
                         "unknown search strategy '" + Name +
                             "'; registered strategies:\n" +
                             StrategyRegistry::instance().describe());
  EvaluationService Eval(std::move(Session), Opts);
  return runSearch(*S, Eval);
}

Expected<ExplorationResult>
defacto::exploreWithStrategy(const Kernel &Source, const ExplorerOptions &Opts,
                             const std::string &Name) {
  return exploreWithStrategy(KernelSession::create(Source.clone()), Opts,
                             Name);
}
