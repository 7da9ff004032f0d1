//===- PortfolioStrategy.cpp - Per-kernel algorithm selection -------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// No single DSE algorithm dominates across kernels (SoberDSE, arXiv
// 2603.00986): the balance walk is near-optimal when the balance model
// holds, the hill climb wins when it misleads, and random sampling is a
// robust floor. The portfolio runs several strategies over the same
// kernel under an evenly split evaluation budget and keeps the per-kernel
// winner. Each sub-strategy gets a fresh EvaluationService sharing the
// parent's EstimateCache, so a design two strategies both visit is
// estimated once and replayed (charged per consumer, the engine's normal
// charge-on-consumption semantics).
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/SearchStrategy.h"
#include "defacto/Support/Histogram.h"

#include <algorithm>

using namespace defacto;

namespace {

class PortfolioStrategy : public SearchStrategy {
public:
  explicit PortfolioStrategy(std::vector<std::string> Names)
      : Names(Names.empty()
                  ? std::vector<std::string>{"guided", "hillclimb", "random"}
                  : std::move(Names)) {}

  std::string name() const override { return "portfolio"; }
  ExplorationResult search(const SearchContext &SC) override;

private:
  std::vector<std::string> Names;
};

} // namespace

ExplorationResult PortfolioStrategy::search(const SearchContext &SC) {
  EvaluationService &Eval = SC.Eval;
  DEFACTO_SPAN("explore.portfolio");
  ExplorationResult Res;
  Res.Strategy = name();
  Res.Sat = Eval.saturation();
  Res.FullSpaceSize = Eval.space().fullSize();

  const unsigned Share = std::max<unsigned>(
      1, Eval.options().MaxEvaluations /
             static_cast<unsigned>(std::max<size_t>(1, Names.size())));

  for (const std::string &Name : Names) {
    std::unique_ptr<SearchStrategy> S =
        StrategyRegistry::instance().create(Name);
    if (!S) {
      Res.Trace += "unknown strategy '" + Name + "' skipped\n";
      continue;
    }
    ExplorerOptions SubOpts = Eval.options();
    SubOpts.MaxEvaluations = Share;
    // Share memoization across the portfolio: a design two strategies
    // both reach costs one estimation.
    SubOpts.Cache = Eval.estimateCache();
    SubOpts.TraceLabel = Eval.trackLabel() + "/" + Name;
    EvaluationService SubEval(Eval.session(), SubOpts);
    // Arm the split budget even for strategies (exhaustive, random) that
    // do not arm one themselves; strategies that do overwrite it with the
    // same cap.
    SubEval.beginBudget(Share);
    ExplorationResult Sub = runSearch(*S, SubEval);
    Res.EvaluationsUsed += Sub.EvaluationsUsed;
    Res.CacheHits += Sub.CacheHits;
    Res.CacheMisses += Sub.CacheMisses;
    Res.Trace += Name + ": " + Sub.toString() + "\n";
    Res.SubResults.push_back(std::move(Sub));
  }

  // Per-kernel winner: a fitting selection beats a non-fitting one; then
  // fewest cycles, fewest slices, lexicographically smallest vector, and
  // finally earliest strategy in the portfolio order — all deterministic.
  // A sub-result that evaluated nothing cannot claim a fitting design,
  // whatever its flag says (the legacy pickBest fallback leaves
  // SelectedFits at its default when not even the baseline estimated).
  auto reallyFits = [](const ExplorationResult &Sub) {
    return Sub.SelectedFits && !Sub.Visited.empty();
  };
  const ExplorationResult *Winner = nullptr;
  for (const ExplorationResult &Sub : Res.SubResults) {
    if (!Winner) {
      Winner = &Sub;
      continue;
    }
    const SynthesisEstimate &A = Sub.SelectedEstimate;
    const SynthesisEstimate &B = Winner->SelectedEstimate;
    bool Better = false;
    if (reallyFits(Sub) != reallyFits(*Winner))
      Better = reallyFits(Sub);
    else if (A.Cycles != B.Cycles)
      Better = A.Cycles < B.Cycles;
    else if (A.Slices != B.Slices)
      Better = A.Slices < B.Slices;
    else
      Better = Sub.Selected < Winner->Selected;
    if (Better)
      Winner = &Sub;
  }

  if (Winner) {
    Res.Selected = Winner->Selected;
    Res.SelectedEstimate = Winner->SelectedEstimate;
    Res.BaselineEstimate = Winner->BaselineEstimate;
    Res.SelectedFits = reallyFits(*Winner);
    Res.Visited = Winner->Visited;
    Res.Failures = Winner->Failures;
    Res.DroppedFailures = Winner->DroppedFailures;
    Res.Degraded = Winner->Degraded;
    Res.Trace += "portfolio winner: " + Winner->Strategy + "\n";
  } else {
    Res.Selected = Eval.space().base();
    Res.SelectedFits = false;
    Res.Degraded = true;
    Res.Trace += "portfolio ran no strategies\n";
  }

  Eval.traceSelection(Res);
  return Res;
}

std::unique_ptr<SearchStrategy>
defacto::createPortfolioStrategy(std::vector<std::string> Strategies) {
  return std::make_unique<PortfolioStrategy>(std::move(Strategies));
}
