//===- strategy_test.cpp - Strategy registry and new strategies -----------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the pluggable-search layer: StrategyRegistry lookup and
/// extension, the hill-climbing strategy (quality, determinism, budget
/// discipline), the portfolio strategy (budget split, per-kernel winner
/// selection, sub-result reporting), and graceful degradation of both
/// under injected estimator faults.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/EvaluationService.h"
#include "defacto/Core/ExplorationReport.h"
#include "defacto/Core/Explorer.h"
#include "defacto/Core/SearchStrategy.h"
#include "defacto/HLS/FaultInjector.h"
#include "defacto/Kernels/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace defacto;

namespace {

Expected<ExplorationResult> runNamed(const std::string &Kernel,
                                     const std::string &Strategy,
                                     ExplorerOptions Opts = {}) {
  return exploreWithStrategy(buildKernel(Kernel), std::move(Opts), Strategy);
}

/// Shared virtual time so fault stalls and deadlines are instant.
struct VirtualClock {
  double Now = 0;
  void install(ExplorerOptions &Opts) {
    Opts.Clock = [this] { return Now; };
    Opts.Sleep = [this](double S) { Now += S; };
  }
  void install(FaultInjector &Inj) {
    Inj.Sleep = [this](double S) { Now += S; };
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// StrategyRegistry
//===----------------------------------------------------------------------===//

TEST(StrategyRegistry, BuiltinsAreRegistered) {
  StrategyRegistry &R = StrategyRegistry::instance();
  for (const char *Name :
       {"guided", "exhaustive", "random", "hillclimb", "portfolio"}) {
    EXPECT_TRUE(R.contains(Name)) << Name;
    std::unique_ptr<SearchStrategy> S = R.create(Name);
    ASSERT_NE(S, nullptr) << Name;
    EXPECT_EQ(S->name(), Name);
  }
  std::vector<std::string> Names = R.names();
  EXPECT_GE(Names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end()));
}

TEST(StrategyRegistry, UnknownNameFailsLoudly) {
  StrategyRegistry &R = StrategyRegistry::instance();
  EXPECT_FALSE(R.contains("simulated-annealing"));
  EXPECT_EQ(R.create("simulated-annealing"), nullptr);

  Expected<ExplorationResult> Res = runNamed("FIR", "simulated-annealing");
  ASSERT_FALSE(static_cast<bool>(Res));
  // The error names every registered strategy so drivers can print it.
  EXPECT_NE(Res.status().message().find("guided"), std::string::npos);
  EXPECT_NE(Res.status().message().find("portfolio"), std::string::npos);
}

namespace {

/// A caller-registered strategy: always picks the baseline design.
class BaselineOnlyStrategy : public SearchStrategy {
public:
  std::string name() const override { return "baseline-only"; }
  ExplorationResult search(const SearchContext &SC) override {
    ExplorationResult Res;
    Res.Strategy = name();
    UnrollVector Base = SC.Eval.space().base();
    if (Expected<SynthesisEstimate> Est = SC.Eval.evaluateChecked(Base)) {
      Res.Selected = Base;
      Res.SelectedEstimate = *Est;
      Res.BaselineEstimate = *Est;
      Res.SelectedFits = Est->Slices <= SC.Opts.Platform.CapacitySlices;
      Res.Visited.push_back({Base, *Est, "baseline", DesignPoint(Base)});
    } else {
      Res.Degraded = true;
    }
    Res.EvaluationsUsed = SC.Eval.evaluationsUsed();
    Res.FullSpaceSize = SC.Eval.space().fullSize();
    return Res;
  }
};

} // namespace

TEST(StrategyRegistry, CallersCanRegisterCustomStrategies) {
  StrategyRegistry &R = StrategyRegistry::instance();
  bool Added = R.add("baseline-only", "always selects the baseline design",
                     [] { return std::make_unique<BaselineOnlyStrategy>(); });
  // A second registration under the same name is rejected, not clobbered.
  EXPECT_FALSE(R.add("baseline-only", "dup",
                     [] { return std::make_unique<BaselineOnlyStrategy>(); }));
  if (Added) {
    EXPECT_NE(R.describe().find("baseline-only"), std::string::npos);
    Expected<ExplorationResult> Res = runNamed("FIR", "baseline-only");
    ASSERT_TRUE(static_cast<bool>(Res));
    EXPECT_EQ(Res->Strategy, "baseline-only");
    EXPECT_EQ(Res->Selected, UnrollVector(Res->Selected.size(), 1));
    EXPECT_EQ(Res->EvaluationsUsed, 1u);
  }
}

//===----------------------------------------------------------------------===//
// Hill climbing
//===----------------------------------------------------------------------===//

TEST(HillClimb, SelectsALocalOptimumNoWorseThanItsStart) {
  for (const KernelSpec &Spec : paperKernels()) {
    SCOPED_TRACE(Spec.Name);
    Expected<ExplorationResult> Res = runNamed(Spec.Name, "hillclimb");
    ASSERT_TRUE(static_cast<bool>(Res));
    EXPECT_EQ(Res->Strategy, "hillclimb");
    EXPECT_TRUE(Res->SelectedFits);
    EXPECT_FALSE(Res->Degraded);

    // The climb starts at the guided Uinit; the selection is the best
    // fitting design it evaluated, so it can never lose to its start.
    const EvaluatedDesign *Start = nullptr;
    for (const EvaluatedDesign &V : Res->Visited)
      if (V.Role == "start")
        Start = &V;
    ASSERT_NE(Start, nullptr);
    EXPECT_LE(Res->SelectedEstimate.Cycles, Start->Estimate.Cycles);
    // Self-consistency: nothing fitting in the visit log beats it.
    for (const EvaluatedDesign &V : Res->Visited)
      if (V.Estimate.Slices <= ExplorerOptions{}.Platform.CapacitySlices) {
        EXPECT_GE(V.Estimate.Cycles, Res->SelectedEstimate.Cycles);
      }
  }
}

TEST(HillClimb, IsDeterministic) {
  Expected<ExplorationResult> A = runNamed("JAC", "hillclimb");
  Expected<ExplorationResult> B = runNamed("JAC", "hillclimb");
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(A->Selected, B->Selected);
  EXPECT_EQ(A->Trace, B->Trace);
  EXPECT_EQ(A->EvaluationsUsed, B->EvaluationsUsed);
}

TEST(HillClimb, RespectsEvaluationBudget) {
  ExplorerOptions Opts;
  Opts.MaxEvaluations = 4;
  Expected<ExplorationResult> Res = runNamed("MM", "hillclimb", Opts);
  ASSERT_TRUE(static_cast<bool>(Res));
  EXPECT_LE(Res->EvaluationsUsed, 4u);
  // Running out of budget mid-climb is a degradation, and the log says so.
  EXPECT_TRUE(Res->Degraded);
  EXPECT_FALSE(Res->Failures.empty());
}

TEST(HillClimb, DegradesGracefullyUnderTotalEstimatorFailure) {
  ExplorerOptions Opts;
  VirtualClock Clock;
  Clock.install(Opts);
  FaultInjector Injector(FaultInjectorOptions{.Seed = 7, .FailureRate = 1.0});
  Clock.install(Injector);
  Opts.Estimator = Injector.wrapDefault();
  Opts.MaxRetries = 1;
  Expected<ExplorationResult> Res = runNamed("FIR", "hillclimb", Opts);
  ASSERT_TRUE(static_cast<bool>(Res));
  EXPECT_TRUE(Res->Degraded);
  EXPECT_FALSE(Res->SelectedFits);
  EXPECT_FALSE(Res->Failures.empty());
}

//===----------------------------------------------------------------------===//
// Portfolio
//===----------------------------------------------------------------------===//

TEST(Portfolio, SplitsTheBudgetAcrossSubStrategies) {
  ExplorerOptions Opts;
  Opts.MaxEvaluations = 30; // Three default sub-strategies -> 10 each.
  Expected<ExplorationResult> Res = runNamed("FIR", "portfolio", Opts);
  ASSERT_TRUE(static_cast<bool>(Res));
  ASSERT_EQ(Res->SubResults.size(), 3u);
  unsigned Sum = 0;
  for (const ExplorationResult &Sub : Res->SubResults) {
    EXPECT_LE(Sub.EvaluationsUsed, 10u) << Sub.Strategy;
    Sum += Sub.EvaluationsUsed;
  }
  EXPECT_EQ(Res->EvaluationsUsed, Sum);
  EXPECT_LE(Res->EvaluationsUsed, 30u);
}

TEST(Portfolio, SelectsThePerKernelWinner) {
  for (const KernelSpec &Spec : paperKernels()) {
    SCOPED_TRACE(Spec.Name);
    Expected<ExplorationResult> Res = runNamed(Spec.Name, "portfolio");
    ASSERT_TRUE(static_cast<bool>(Res));
    EXPECT_EQ(Res->Strategy, "portfolio");
    ASSERT_FALSE(Res->SubResults.empty());
    EXPECT_TRUE(Res->SelectedFits);

    // The selection is copied from one sub-result, and no fitting
    // sub-result is faster than it.
    bool FoundWinner = false;
    for (const ExplorationResult &Sub : Res->SubResults) {
      if (Sub.SelectedFits) {
        EXPECT_GE(Sub.SelectedEstimate.Cycles, Res->SelectedEstimate.Cycles)
            << Sub.Strategy;
      }
      if (Sub.Selected == Res->Selected &&
          Sub.SelectedEstimate.Cycles == Res->SelectedEstimate.Cycles)
        FoundWinner = true;
    }
    EXPECT_TRUE(FoundWinner);
    EXPECT_NE(Res->Trace.find("portfolio winner:"), std::string::npos);
  }
}

TEST(Portfolio, BeatsOrMatchesGuidedOnEveryPaperKernel) {
  // The SoberDSE claim: per-kernel algorithm selection never loses to any
  // single member strategy, since guided is in the portfolio.
  for (const KernelSpec &Spec : paperKernels()) {
    SCOPED_TRACE(Spec.Name);
    Expected<ExplorationResult> Guided = runNamed(Spec.Name, "guided");
    Expected<ExplorationResult> Port = runNamed(Spec.Name, "portfolio");
    ASSERT_TRUE(static_cast<bool>(Guided));
    ASSERT_TRUE(static_cast<bool>(Port));
    EXPECT_LE(Port->SelectedEstimate.Cycles, Guided->SelectedEstimate.Cycles);
  }
}

TEST(Portfolio, SubServicesKeepTheBuiltInBackend) {
  // The portfolio builds each sub-service from the parent's options().
  // A default-backend parent must hand down "no estimator injected", so
  // a sub-service estimates with the built-in backend (no second
  // verification of every candidate) and answers like its parent.
  EvaluationService Parent(buildKernel("FIR"), ExplorerOptions{});
  EXPECT_FALSE(Parent.options().Estimator);
  EvaluationService Sub(Parent.session(), Parent.options());
  EXPECT_FALSE(Sub.options().Estimator);
  Expected<SynthesisEstimate> FromParent = Parent.evaluateChecked({1, 2});
  Expected<SynthesisEstimate> FromSub = Sub.evaluateChecked({1, 2});
  ASSERT_TRUE(static_cast<bool>(FromParent));
  ASSERT_TRUE(static_cast<bool>(FromSub));
  EXPECT_EQ(FromSub->Cycles, FromParent->Cycles);
  EXPECT_EQ(FromSub->Slices, FromParent->Slices);

  // An injected backend is handed down as injected.
  unsigned Calls = 0;
  ExplorerOptions Injected;
  Injected.Estimator = [&Calls](const Kernel &K, const TargetPlatform &P) {
    ++Calls;
    return estimateDesignChecked(K, P);
  };
  EvaluationService InjectedParent(buildKernel("FIR"), Injected);
  EvaluationService InjectedSub(InjectedParent.session(),
                                InjectedParent.options());
  ASSERT_TRUE(static_cast<bool>(InjectedSub.evaluateChecked({1, 2})));
  EXPECT_EQ(Calls, 1u);
}

TEST(Portfolio, DegradesGracefullyUnderInjectedFaults) {
  ExplorerOptions Opts;
  VirtualClock Clock;
  Clock.install(Opts);
  FaultInjector Injector(
      FaultInjectorOptions{.Seed = 42, .FailureRate = 1.0});
  Clock.install(Injector);
  Opts.Estimator = Injector.wrapDefault();
  Opts.MaxRetries = 0;
  Expected<ExplorationResult> Res = runNamed("PAT", "portfolio", Opts);
  ASSERT_TRUE(static_cast<bool>(Res));
  EXPECT_TRUE(Res->Degraded);
  EXPECT_FALSE(Res->SelectedFits);
  for (const ExplorationResult &Sub : Res->SubResults)
    EXPECT_TRUE(Sub.Degraded) << Sub.Strategy;
}

TEST(Portfolio, ReportRendersPerStrategySections) {
  Expected<ExplorationResult> Res = runNamed("FIR", "portfolio");
  ASSERT_TRUE(static_cast<bool>(Res));
  EXPECT_NE(Res->toString().find("strategy=portfolio"), std::string::npos);
  std::string Report = renderExplorationReport(*Res, "FIR portfolio");
  EXPECT_NE(Report.find("Strategy: portfolio"), std::string::npos);
  for (const ExplorationResult &Sub : Res->SubResults)
    EXPECT_NE(Report.find("--- strategy " + Sub.Strategy), std::string::npos)
        << Sub.Strategy;
  EXPECT_NE(Report.find("[winner]"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Batch integration
//===----------------------------------------------------------------------===//

TEST(BatchStrategies, JobsRouteThroughTheRegistry) {
  BatchExplorer Engine;
  for (const char *Name : {"guided", "hillclimb", "portfolio"}) {
    ExplorerOptions Opts;
    Engine.addJob(BatchJob(Name, buildKernel("FIR"), std::move(Opts), Name));
  }
  std::vector<BatchResult> Results = Engine.runAll();
  ASSERT_EQ(Results.size(), 3u);
  for (const BatchResult &R : Results) {
    EXPECT_EQ(R.Result.Strategy, R.Name);
    EXPECT_TRUE(R.Result.SelectedFits);
  }
}

TEST(BatchStrategies, UnknownStrategyFallsBackToGuided) {
  BatchExplorer Engine;
  ExplorerOptions Opts;
  Engine.addJob(BatchJob("job", buildKernel("MM"), std::move(Opts), "bogus"));
  std::vector<BatchResult> Results = Engine.runAll();
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].Result.Strategy, "guided");
  EXPECT_NE(Results[0].Result.Trace.find("unknown strategy 'bogus'"),
            std::string::npos);
}
