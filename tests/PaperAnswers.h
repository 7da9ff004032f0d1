//===- PaperAnswers.h - The paper-answers golden file ----------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line format of tests/golden/paper_answers.golden, the committed
/// oracle for what the exploration engine answers: one header line per
/// (kernel, platform, strategy) exploration carrying the winner, its
/// estimate in hexfloat, the evaluations spent and the decision-digest
/// hash, followed — for the exhaustive strategy — by one line per
/// visited candidate with every estimate field.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_TESTS_PAPERANSWERS_H
#define DEFACTO_TESTS_PAPERANSWERS_H

#include "defacto/Core/SearchStrategy.h"
#include "defacto/HLS/OperatorLibrary.h"
#include "defacto/Serve/Protocol.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace defacto {
namespace paper_answers {

inline std::string goldenPath() {
  return std::string(DEFACTO_TEST_DIR) + "/golden/paper_answers.golden";
}

/// Exact rendering of a double (hexfloat: every bit survives).
inline std::string hex(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

/// Every SynthesisEstimate field, bit-exact.
inline std::string estimateFields(const SynthesisEstimate &E) {
  std::string Units;
  for (const auto &[Shape, N] : E.Units)
    Units += std::string(Units.empty() ? "" : ",") +
             opClassName(Shape.first) + std::to_string(Shape.second) + "x" +
             std::to_string(N);
  return "cycles=" + std::to_string(E.Cycles) + " slices=" + hex(E.Slices) +
         " regs=" + std::to_string(E.Registers) + " F=" + hex(E.FetchRate) +
         " C=" + hex(E.ConsumeRate) + " balance=" + hex(E.Balance) +
         " mem=" + hex(E.MemOnlyCycles) + " comp=" + hex(E.CompOnlyCycles) +
         " bits=" + hex(E.BitsTransferred) +
         " states=" + std::to_string(E.FsmStates) + " units=" + Units;
}

/// The prefix naming one exploration in the golden file.
inline std::string answerKey(const std::string &Kernel,
                             const std::string &Platform,
                             const std::string &Strategy) {
  return Kernel + " " + Platform + " " + Strategy;
}

/// \p P, or the unroll-only point of \p U when \p P was left defaulted.
inline DesignPoint pointOr(const DesignPoint &P, const UnrollVector &U) {
  return P.Unroll.empty() ? DesignPoint(U) : P;
}

/// The golden lines of one exploration. \p Digest is the run's
/// TraceRecorder::decisionDigest().
inline std::vector<std::string>
answerLines(const std::string &Kernel, const std::string &Platform,
            const std::string &Strategy, const ExplorationResult &R,
            const std::vector<std::string> &Digest) {
  const SynthesisEstimate &E = R.SelectedEstimate;
  std::string Winner = pointOr(R.SelectedPoint, R.Selected).toString();
  std::vector<std::string> Lines;
  Lines.push_back(answerKey(Kernel, Platform, Strategy) + " winner=[" +
                  Winner + "] cycles=" + std::to_string(E.Cycles) +
                  " slices=" + hex(E.Slices) + " balance=" + hex(E.Balance) +
                  " evals=" + std::to_string(R.EvaluationsUsed) +
                  " digest=" + digestHash(Digest));
  if (Strategy == "exhaustive")
    for (const EvaluatedDesign &V : R.Visited)
      Lines.push_back("  visit [" + pointOr(V.Point, V.U).toString() + "] " +
                      estimateFields(V.Estimate));
  return Lines;
}

/// The committed golden lines (empty when the file is missing).
inline std::vector<std::string> readGolden() {
  std::vector<std::string> Lines;
  std::ifstream In(goldenPath());
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// The golden lines of one exploration (empty when absent).
inline std::vector<std::string> goldenAnswer(const std::string &Kernel,
                                             const std::string &Platform,
                                             const std::string &Strategy) {
  std::string Key = answerKey(Kernel, Platform, Strategy) + " winner=";
  std::vector<std::string> Block;
  for (const std::string &Line : readGolden()) {
    if (Block.empty() ? Line.compare(0, Key.size(), Key) == 0
                      : Line.compare(0, 2, "  ") == 0)
      Block.push_back(Line);
    else if (!Block.empty())
      break;
  }
  return Block;
}

} // namespace paper_answers
} // namespace defacto

#endif // DEFACTO_TESTS_PAPERANSWERS_H
