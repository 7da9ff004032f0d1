//===- Passes.cpp - The §4 transforms as registered passes ----------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Transforms/PassRegistry.h"

#include "defacto/Analysis/AnalysisManager.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Transforms/ConstantFolding.h"
#include "defacto/Transforms/Interchange.h"
#include "defacto/Transforms/Normalize.h"
#include "defacto/Transforms/Tiling.h"

#include <numeric>
#include <sstream>

using namespace defacto;

TransformPass::~TransformPass() = default;

PreservedAnalyses TransformPass::preserved() const {
  return PreservedAnalyses::none();
}

PassPipeline::PassPipeline() = default;
PassPipeline::PassPipeline(PassPipeline &&) = default;
PassPipeline &PassPipeline::operator=(PassPipeline &&) = default;
PassPipeline::~PassPipeline() = default;

void PassPipeline::add(std::unique_ptr<TransformPass> Pass) {
  Passes.push_back(std::move(Pass));
}

Status PassPipeline::run(Kernel &K, AnalysisManager &AM) const {
  for (const std::unique_ptr<TransformPass> &P : Passes) {
    if (Status S = P->run(K, AM); !S.isOk())
      return S;
    AM.invalidate(P->preserved());
  }
  return Status::ok();
}

const char *defacto::defaultPipelineText() {
  return "normalize,stripmine,unroll,normalize,scalar-repl,peel,fold,layout";
}

const char *defacto::defaultPipelineTextWithInterchange() {
  return "normalize,interchange,stripmine,unroll,normalize,scalar-repl,peel,"
         "fold,layout";
}

//===----------------------------------------------------------------------===//
// The eight built-in passes. Each mirrors the historical hardcoded
// pipeline stage bit for bit (pipeline_parity_test holds the line) and
// charges itself to its pipeline.pass.<name> span.
//===----------------------------------------------------------------------===//

namespace {

class NormalizePass : public TransformPass {
public:
  std::string name() const override { return "normalize"; }
  Status run(Kernel &K, AnalysisManager &) override {
    DEFACTO_SPAN("pipeline.pass.normalize");
    normalizeLoops(K);
    return Status::ok();
  }
};

/// Strip-mining (§5.4 register control). A no-op unless the run's options
/// request a tile; invalid positions/sizes are silently skipped, exactly
/// like the historical sequence (stripMine itself rejects them).
class StripMinePass : public TransformPass {
public:
  explicit StripMinePass(const TransformOptions &Opts) : Opts(Opts) {}
  std::string name() const override { return "stripmine"; }
  Status run(Kernel &K, AnalysisManager &) override {
    if (!Opts.StripMine)
      return Status::ok();
    DEFACTO_SPAN("pipeline.pass.stripmine");
    if (ForStmt *Top = K.topLoop()) {
      std::vector<ForStmt *> Nest = perfectNest(Top);
      unsigned Pos = Opts.StripMine->first;
      if (Pos < Nest.size())
        stripMine(K, Nest[Pos]->loopId(), Opts.StripMine->second);
    }
    return Status::ok();
  }

private:
  const TransformOptions &Opts;
};

class UnrollPass : public TransformPass {
public:
  UnrollPass(const TransformOptions &Opts, TransformResult &Result)
      : Opts(Opts), Result(Result) {}
  std::string name() const override { return "unroll"; }
  Status run(Kernel &K, AnalysisManager &) override {
    DEFACTO_SPAN("pipeline.pass.unroll");
    Result.UnrollApplied = unrollAndJam(K, Opts.Unroll);
    return Status::ok();
  }

private:
  const TransformOptions &Opts;
  TransformResult &Result;
};

/// Loop interchange. Applies the options' permutation as a sequence of
/// pairwise interchanges; an illegal or malformed permutation fails the
/// pipeline (the caller degrades to the untransformed fallback).
class InterchangePass : public TransformPass {
public:
  explicit InterchangePass(const TransformOptions &Opts) : Opts(Opts) {}
  std::string name() const override { return "interchange"; }
  Status run(Kernel &K, AnalysisManager &) override {
    const std::vector<unsigned> &Perm = Opts.Interchange;
    if (Perm.empty())
      return Status::ok();
    DEFACTO_SPAN("pipeline.pass.interchange");
    ForStmt *Top = K.topLoop();
    if (!Top)
      return Status::error(ErrorCode::InvalidInput,
                           "interchange requires a loop nest");
    size_t N = perfectNest(Top).size();
    if (Perm.size() != N)
      return Status::error(ErrorCode::InvalidInput,
                           "interchange permutation has " +
                               std::to_string(Perm.size()) +
                               " entries for a nest of depth " +
                               std::to_string(N));
    std::vector<bool> Seen(N, false);
    for (unsigned P : Perm) {
      if (P >= N || Seen[P])
        return Status::error(ErrorCode::InvalidInput,
                             "interchange vector is not a permutation of "
                             "the nest positions");
      Seen[P] = true;
    }
    // Realize the permutation by selection: bring Perm[I]'s loop to
    // position I with one direct interchange per misplaced slot.
    std::vector<unsigned> Cur(N);
    std::iota(Cur.begin(), Cur.end(), 0u);
    for (unsigned I = 0; I != N; ++I) {
      unsigned J = I;
      while (Cur[J] != Perm[I])
        ++J;
      if (J == I)
        continue;
      if (!interchangeLoops(K, I, J))
        return Status::error(ErrorCode::InvalidInput,
                             "interchange of nest positions " +
                                 std::to_string(I) + " and " +
                                 std::to_string(J) +
                                 " violates a dependence");
      std::swap(Cur[I], Cur[J]);
    }
    return Status::ok();
  }

private:
  const TransformOptions &Opts;
};

class ScalarReplacementPass : public TransformPass {
public:
  ScalarReplacementPass(const TransformOptions &Opts, TransformResult &Result)
      : Opts(Opts), Result(Result) {}
  std::string name() const override { return "scalar-repl"; }
  Status run(Kernel &K, AnalysisManager &) override {
    if (!Opts.EnableScalarReplacement)
      return Status::ok();
    DEFACTO_SPAN("pipeline.pass.scalar-repl");
    Result.SR = scalarReplace(K, Opts.SR);
    return Status::ok();
  }

private:
  const TransformOptions &Opts;
  TransformResult &Result;
};

class LoopPeelingPass : public TransformPass {
public:
  LoopPeelingPass(const TransformOptions &Opts, TransformResult &Result)
      : Opts(Opts), Result(Result) {}
  std::string name() const override { return "peel"; }
  Status run(Kernel &K, AnalysisManager &) override {
    if (!Opts.EnablePeeling)
      return Status::ok();
    DEFACTO_SPAN("pipeline.pass.peel");
    Result.Peeling = peelGuardedIterations(K);
    return Status::ok();
  }

private:
  const TransformOptions &Opts;
  TransformResult &Result;
};

class ConstantFoldingPass : public TransformPass {
public:
  std::string name() const override { return "fold"; }
  Status run(Kernel &K, AnalysisManager &) override {
    DEFACTO_SPAN("pipeline.pass.fold");
    foldConstants(K.body());
    return Status::ok();
  }
};

class DataLayoutPass : public TransformPass {
public:
  DataLayoutPass(const TransformOptions &Opts, TransformResult &Result)
      : Opts(Opts), Result(Result) {}
  std::string name() const override { return "layout"; }
  Status run(Kernel &K, AnalysisManager &) override {
    if (!Opts.EnableDataLayout)
      return Status::ok();
    DEFACTO_SPAN("pipeline.pass.layout");
    Expected<DataLayoutStats> Layout = applyDataLayout(K, Opts.Layout);
    if (!Layout)
      return Layout.status();
    Result.Layout = *Layout;
    return Status::ok();
  }

private:
  const TransformOptions &Opts;
  TransformResult &Result;
};

} // namespace

//===----------------------------------------------------------------------===//
// Registry and parser
//===----------------------------------------------------------------------===//

PassRegistry::PassRegistry() {
  auto Reg = [this](const std::string &Name, const std::string &Desc,
                    Factory Make) {
    Passes.emplace(Name, RegisteredPass{Desc, std::move(Make)});
  };
  Reg("normalize", "rewrite every loop to lower bound 0, step 1",
      [](const TransformOptions &, TransformResult &) {
        return std::make_unique<NormalizePass>();
      });
  Reg("stripmine", "strip-mine per Opts.StripMine (§5.4 register control)",
      [](const TransformOptions &O, TransformResult &) {
        return std::make_unique<StripMinePass>(O);
      });
  Reg("unroll", "unroll-and-jam per Opts.Unroll",
      [](const TransformOptions &O, TransformResult &R) {
        return std::make_unique<UnrollPass>(O, R);
      });
  Reg("interchange", "permute the nest per Opts.Interchange (legality-checked)",
      [](const TransformOptions &O, TransformResult &) {
        return std::make_unique<InterchangePass>(O);
      });
  Reg("scalar-repl", "replace reused array accesses with register chains",
      [](const TransformOptions &O, TransformResult &R) {
        return std::make_unique<ScalarReplacementPass>(O, R);
      });
  Reg("peel", "peel guarded first iterations exposed by scalar replacement",
      [](const TransformOptions &O, TransformResult &R) {
        return std::make_unique<LoopPeelingPass>(O, R);
      });
  Reg("fold", "fold constant expressions and statically-decided branches",
      [](const TransformOptions &, TransformResult &) {
        return std::make_unique<ConstantFoldingPass>();
      });
  Reg("layout", "distribute arrays across the platform's memory banks",
      [](const TransformOptions &O, TransformResult &R) {
        return std::make_unique<DataLayoutPass>(O, R);
      });
}

PassRegistry &PassRegistry::instance() {
  static PassRegistry R;
  return R;
}

bool PassRegistry::add(const std::string &Name, const std::string &Description,
                       Factory Make) {
  std::lock_guard<std::mutex> Lock(M);
  return Passes.emplace(Name, RegisteredPass{Description, std::move(Make)})
      .second;
}

std::unique_ptr<TransformPass>
PassRegistry::create(const std::string &Name, const TransformOptions &Opts,
                     TransformResult &Result) const {
  Factory Make;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Passes.find(Name);
    if (It == Passes.end())
      return nullptr;
    Make = It->second.Make;
  }
  return Make(Opts, Result);
}

bool PassRegistry::contains(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  return Passes.count(Name) != 0;
}

std::vector<std::string> PassRegistry::names() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Names;
  for (const auto &KV : Passes)
    Names.push_back(KV.first);
  return Names;
}

std::string PassRegistry::describe() const {
  std::lock_guard<std::mutex> Lock(M);
  std::ostringstream OS;
  size_t Widest = 0;
  for (const auto &KV : Passes)
    Widest = std::max(Widest, KV.first.size());
  for (const auto &KV : Passes) {
    OS << "  " << KV.first
       << std::string(Widest - KV.first.size() + 2, ' ')
       << KV.second.Description << '\n';
  }
  return OS.str();
}

Expected<std::vector<std::string>>
defacto::parsePipelineText(const std::string &Text) {
  std::vector<std::string> Names;
  std::string Piece;
  std::istringstream In(Text);
  while (std::getline(In, Piece, ',')) {
    size_t Begin = Piece.find_first_not_of(" \t");
    size_t End = Piece.find_last_not_of(" \t");
    std::string Name =
        Begin == std::string::npos ? "" : Piece.substr(Begin, End - Begin + 1);
    if (Name.empty())
      return Status::error(ErrorCode::InvalidInput,
                           "empty pass name in pipeline '" + Text + "'");
    if (!PassRegistry::instance().contains(Name))
      return Status::error(ErrorCode::InvalidInput,
                           "unknown pass '" + Name +
                               "' in pipeline; registered passes:\n" +
                               PassRegistry::instance().describe());
    Names.push_back(std::move(Name));
  }
  if (Names.empty())
    return Status::error(ErrorCode::InvalidInput,
                         "pipeline description is empty");
  return Names;
}

Expected<PassPipeline> defacto::buildPassPipeline(const std::string &Text,
                                                  const TransformOptions &Opts,
                                                  TransformResult &Result) {
  const std::string &Effective =
      !Text.empty() ? Text
      : Opts.Interchange.empty()
          ? std::string(defaultPipelineText())
          : std::string(defaultPipelineTextWithInterchange());
  Expected<std::vector<std::string>> Names = parsePipelineText(Effective);
  if (!Names)
    return Names.status();
  PassPipeline PP;
  for (const std::string &Name : *Names)
    PP.add(PassRegistry::instance().create(Name, Opts, Result));
  return PP;
}
