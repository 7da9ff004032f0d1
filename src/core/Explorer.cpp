//===- Explorer.cpp - Compatibility façade over the two layers ------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/Explorer.h"

using namespace defacto;

DesignSpaceExplorer::DesignSpaceExplorer(const Kernel &Source,
                                         ExplorerOptions Opts)
    : Svc(Source, std::move(Opts)) {}

DesignSpaceExplorer::~DesignSpaceExplorer() = default;

ExplorationResult DesignSpaceExplorer::run() {
  return runSearch(*createGuidedStrategy(), Svc);
}

Expected<ExplorationResult>
DesignSpaceExplorer::runWithStrategy(const std::string &Name) {
  std::unique_ptr<SearchStrategy> S = StrategyRegistry::instance().create(Name);
  if (!S)
    return Status::error(ErrorCode::InvalidInput,
                         "unknown search strategy '" + Name +
                             "'; registered strategies:\n" +
                             StrategyRegistry::instance().describe());
  return runSearch(*S, Svc);
}

ExplorationResult defacto::exploreExhaustive(const Kernel &Source,
                                             const ExplorerOptions &Opts) {
  EvaluationService Eval(Source, Opts);
  return runSearch(*createExhaustiveStrategy(), Eval);
}

ExplorationResult defacto::exploreRandom(const Kernel &Source,
                                         const ExplorerOptions &Opts,
                                         unsigned Samples, uint64_t Seed) {
  EvaluationService Eval(Source, Opts);
  return runSearch(*createRandomStrategy(Samples, Seed), Eval);
}
