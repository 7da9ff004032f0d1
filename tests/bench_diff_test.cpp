//===- bench_diff_test.cpp - Golden-oracle tests for bench_diff -----------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the real bench_diff binary against committed fixture reports and
/// pins its observable contract: exit codes, the regression gate, the
/// missing-section tolerances, and — for the two load-bearing paths —
/// the byte-exact output against golden files. The tool is CI's perf
/// tripwire; if its output or exit codes drift silently, regression
/// gating drifts with them. Regenerate goldens with DEFACTO_REGOLDEN=1
/// after a deliberate, reviewed format change.
///
/// Paths come from the build: BENCH_DIFF_BIN is the tool binary,
/// BENCH_FIXTURE_DIR the committed fixtures. The tool runs with the
/// fixture directory as its cwd so paths in the output stay relative
/// and machine-independent.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct ToolRun {
  int ExitCode = -1;
  std::string Output; // stdout + stderr, interleaved
};

/// Runs bench_diff with \p Args (cwd = the fixture dir), capturing the
/// merged output and the real process exit code.
ToolRun runBenchDiff(const std::string &Args) {
  std::string Cmd = std::string("cd \"") + BENCH_FIXTURE_DIR + "\" && \"" +
                    BENCH_DIFF_BIN + "\" " + Args + " 2>&1";
  ToolRun R;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe) {
    R.Output = "popen failed";
    return R;
  }
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  if (WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

std::string goldenPath(const std::string &Name) {
  return std::string(BENCH_FIXTURE_DIR) + "/" + Name;
}

/// Byte-exact oracle comparison; DEFACTO_REGOLDEN=1 rewrites the file.
void expectMatchesGolden(const ToolRun &R, const std::string &Name) {
  std::string Path = goldenPath(Name);
  if (::getenv("DEFACTO_REGOLDEN")) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << R.Output;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (run with DEFACTO_REGOLDEN=1 to create)";
  std::ostringstream OS;
  OS << In.rdbuf();
  EXPECT_EQ(R.Output, OS.str()) << "output drifted from " << Path;
}

//===----------------------------------------------------------------------===//
// The clean-comparison path
//===----------------------------------------------------------------------===//

TEST(BenchDiff, ImprovementComparesCleanByteForByte) {
  ToolRun R = runBenchDiff("bench_base.json bench_improved.json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("no evals/sec regression beyond 10%"),
            std::string::npos)
      << R.Output;
  expectMatchesGolden(R, "bench_diff_improvement.golden");
}

TEST(BenchDiff, IdenticalReportsCompareClean) {
  ToolRun R = runBenchDiff("bench_base.json bench_base.json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // Every delta column is exactly +0.0%.
  EXPECT_NE(R.Output.find("+0.0%"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("regression beyond 10%:"), std::string::npos)
      << R.Output;
}

//===----------------------------------------------------------------------===//
// The regression gate
//===----------------------------------------------------------------------===//

TEST(BenchDiff, RegressionWarnsButExitsZeroWithoutTheGate) {
  ToolRun R = runBenchDiff("bench_base.json bench_regressed.json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("warning: regression beyond 10%"),
            std::string::npos)
      << R.Output;
  // Only the halved sweep trips: on @1 threads, 4000 -> 2000.
  EXPECT_NE(R.Output.find("on @1 threads: 4000.0 -> 2000.0 evals/s"),
            std::string::npos)
      << R.Output;
}

TEST(BenchDiff, RegressionGatesToExitOneByteForByte) {
  ToolRun R = runBenchDiff(
      "bench_base.json bench_regressed.json --fail-on-regression");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error: regression beyond 10%"), std::string::npos)
      << R.Output;
  expectMatchesGolden(R, "bench_diff_regression.golden");
}

TEST(BenchDiff, ThresholdFlagLoosensTheGate) {
  // The worst sweep drops 50%; a 60% threshold lets it through.
  ToolRun R = runBenchDiff("bench_base.json bench_regressed.json "
                           "--fail-on-regression --threshold-pct=60");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("no evals/sec regression beyond 60%"),
            std::string::npos)
      << R.Output;
}

//===----------------------------------------------------------------------===//
// Schema tolerances: missing sections and unmatched sweeps
//===----------------------------------------------------------------------===//

TEST(BenchDiff, MissingBaselineLatencySectionIsSkippedNotFatal) {
  ToolRun R = runBenchDiff("bench_base_nolat.json bench_improved.json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("baseline has no latency_percentiles section"),
            std::string::npos)
      << R.Output;
}

TEST(BenchDiff, UnmatchedSweepsShowDashesInsteadOfFailing) {
  // The current report carries an (on-cold, 8) sweep the baseline
  // lacks: its baseline columns render "-" and nothing regresses.
  ToolRun R = runBenchDiff("bench_base.json bench_mismatch.json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("on-cold  8"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find('-'), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("no evals/sec regression beyond 10%"),
            std::string::npos)
      << R.Output;
}

//===----------------------------------------------------------------------===//
// Failure modes: unreadable input and usage errors
//===----------------------------------------------------------------------===//

TEST(BenchDiff, UnreadableBaselineExitsOne) {
  ToolRun R = runBenchDiff("no_such_file.json bench_improved.json");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("cannot open no_such_file.json"),
            std::string::npos)
      << R.Output;
}

TEST(BenchDiff, GarbageJsonExitsOne) {
  ToolRun R = runBenchDiff("bench_base.json bench_garbage.json");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("bench_garbage.json"), std::string::npos)
      << R.Output;
}

TEST(BenchDiff, MissingArgumentsExitTwoWithUsage) {
  for (const char *Args : {"", "bench_base.json",
                           "bench_base.json bench_improved.json extra.json"}) {
    ToolRun R = runBenchDiff(Args);
    EXPECT_EQ(R.ExitCode, 2) << "args: '" << Args << "'\n" << R.Output;
    EXPECT_NE(R.Output.find("usage: bench_diff"), std::string::npos)
        << R.Output;
  }
}

} // namespace
