//===- metrics_test.cpp - Live telemetry layer tests ----------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The live-telemetry contract: the histogram bucket layout and quantile
/// determinism (Support/Histogram.h), concurrent recording, the
/// DEFACTO_SPAN phase primitive (gating, rounding, naming, and the staged
/// route's per-pass spans), the
/// MetricsSampler's JSONL/OpenMetrics output driven by a fake clock, the
/// OpenMetrics validator itself, and end-to-end agreement — the final
/// sample must report exactly what StatRegistry and EstimateCache::stats()
/// report after a real exploration.
///
//===----------------------------------------------------------------------===//

#include "defacto/Core/ExplorationReport.h"
#include "defacto/Core/Explorer.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/CommandLine.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/MetricsSampler.h"
#include "defacto/Support/OpenMetrics.h"
#include "defacto/Support/Stats.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace defacto;

namespace {

uint64_t counterValue(const std::string &Group, const std::string &Name) {
  for (const StatSnapshot &S : StatRegistry::instance().snapshot())
    if (S.Group == Group && S.Name == Name)
      return S.Value;
  return 0;
}

/// Every test runs with recording on and a clean histogram registry;
/// the previous enable state is restored afterwards.
class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasEnabled = StatRegistry::instance().enabled();
    StatRegistry::instance().setEnabled(true);
    HistogramRegistry::global().reset();
  }
  void TearDown() override {
    HistogramRegistry::global().reset();
    StatRegistry::instance().setEnabled(WasEnabled);
  }
  std::string tempPath(const std::string &Leaf) {
    return ::testing::TempDir() + "defacto_metrics_" + Leaf;
  }
  bool WasEnabled = false;
};

//===--------------------------------------------------------------===//
// Histogram bucket layout.
//===--------------------------------------------------------------===//

TEST_F(MetricsTest, BucketBoundsAreContiguousAndMonotonic) {
  for (unsigned I = 0; I + 1 < Histogram::NumBuckets; ++I) {
    EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketBound(I)), I)
        << "bucket " << I;
    EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketBound(I) + 1), I + 1)
        << "bucket " << I;
  }
}

TEST_F(MetricsTest, SmallValuesAreExact) {
  // Values below 2^(SubBits+1) land in single-value buckets.
  for (uint64_t V = 0; V < (uint64_t{2} << Histogram::SubBits); ++V)
    EXPECT_EQ(Histogram::bucketBound(Histogram::bucketIndex(V)), V);
}

TEST_F(MetricsTest, BucketErrorIsBoundedByEighth) {
  // Log-linear layout: a bucket's upper bound overstates any member by
  // at most 1/2^SubBits (12.5%).
  for (uint64_t V : {uint64_t{17}, uint64_t{100}, uint64_t{999},
                     uint64_t{1} << 20, (uint64_t{1} << 40) + 12345}) {
    uint64_t Bound = Histogram::bucketBound(Histogram::bucketIndex(V));
    EXPECT_GE(Bound, V);
    EXPECT_LE(Bound - V, V / 8) << "value " << V;
  }
}

//===--------------------------------------------------------------===//
// Quantiles.
//===--------------------------------------------------------------===//

TEST_F(MetricsTest, QuantilesOfExactValues) {
  Histogram H("q");
  for (uint64_t V = 0; V < 16; ++V)
    H.record(V);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 16u);
  EXPECT_EQ(S.Sum, 120u);
  EXPECT_DOUBLE_EQ(S.mean(), 7.5);
  EXPECT_EQ(S.quantile(0.5), 7u);  // ceil(0.5*16) = 8th smallest = 7
  EXPECT_EQ(S.quantile(1.0), 15u);
}

TEST_F(MetricsTest, QuantileClampsToRecordedMax) {
  Histogram H("clamp");
  H.record(1);
  H.record(1000000);
  HistogramSnapshot S = H.snapshot();
  // The top bucket's bound overshoots 1e6; the quantile must report the
  // exact recorded maximum instead.
  EXPECT_EQ(S.quantile(0.99), 1000000u);
  EXPECT_EQ(S.Max, 1000000u);
  EXPECT_EQ(S.quantile(0.5), 1u);
}

TEST_F(MetricsTest, EmptyHistogramIsZero) {
  Histogram H("empty");
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
}

TEST_F(MetricsTest, DisabledRecordingIsANoOp) {
  StatRegistry::instance().setEnabled(false);
  Histogram H("off");
  H.record(42);
  EXPECT_EQ(H.count(), 0u);
  StatRegistry::instance().setEnabled(true);
  H.record(42);
  EXPECT_EQ(H.count(), 1u);
}

TEST_F(MetricsTest, MergeAddsDistributions) {
  Histogram A("a"), B("b");
  for (uint64_t V = 0; V < 8; ++V)
    A.record(V);
  for (uint64_t V = 8; V < 16; ++V)
    B.record(V);
  HistogramSnapshot S = A.snapshot();
  S.merge(B.snapshot());
  EXPECT_EQ(S.Count, 16u);
  EXPECT_EQ(S.Sum, 120u);
  EXPECT_EQ(S.quantile(0.5), 7u);
  EXPECT_EQ(S.Max, 15u);
}

TEST_F(MetricsTest, ConcurrentRecordingIsDeterministic) {
  // Many threads recording one multiset must yield exactly the counts
  // (and therefore quantiles) of a single-threaded recording of the
  // same multiset — the tsan job runs this under the race detector.
  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 10000;
  Histogram Concurrent("conc"), Reference("ref");
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Concurrent] {
      for (uint64_t J = 0; J != PerThread; ++J)
        Concurrent.record(J % 997);
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 0; T != NumThreads; ++T)
    for (uint64_t J = 0; J != PerThread; ++J)
      Reference.record(J % 997);

  HistogramSnapshot C = Concurrent.snapshot(), R = Reference.snapshot();
  EXPECT_EQ(C.Count, NumThreads * PerThread);
  EXPECT_EQ(C.Count, R.Count);
  EXPECT_EQ(C.Sum, R.Sum);
  EXPECT_EQ(C.Max, R.Max);
  EXPECT_EQ(C.Buckets, R.Buckets);
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_EQ(C.quantile(Q), R.quantile(Q));
}

//===--------------------------------------------------------------===//
// DEFACTO_SPAN.
//===--------------------------------------------------------------===//

TEST_F(MetricsTest, SpanRecordsMicrosecondsUnderItsUsName) {
  Histogram &H = HistogramRegistry::global().histogram("test.scope_us");
  {
    DEFACTO_SPAN("test.scope");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(H.count(), 1u);
  EXPECT_GE(H.snapshot().Max, 1000u); // slept >= 1ms = 1000us
  // The macro appends the suffix; nothing records under the bare name.
  for (const HistogramSnapshot &S : HistogramRegistry::global().snapshot())
    EXPECT_NE(S.Name, "test.scope");
}

TEST_F(MetricsTest, SpanRecordsOnlyWhileStatsAreOn) {
  Histogram &H = HistogramRegistry::global().histogram("test.gated_us");
  StatRegistry::instance().setEnabled(false);
  { DEFACTO_SPAN("test.gated"); }
  EXPECT_EQ(H.count(), 0u);

  StatRegistry::instance().setEnabled(true);
  { DEFACTO_SPAN("test.gated"); }
  EXPECT_EQ(H.count(), 1u);

  std::string Err;
  EXPECT_TRUE(isValidJson(HistogramRegistry::global().toJson(), &Err)) << Err;
}

TEST_F(MetricsTest, SpanRoundsToTheNearestMicrosecond) {
  EXPECT_EQ(ScopedSpan::toMicros(0), 0u);
  EXPECT_EQ(ScopedSpan::toMicros(499), 0u);
  EXPECT_EQ(ScopedSpan::toMicros(500), 1u);
  EXPECT_EQ(ScopedSpan::toMicros(1499), 1u);
  EXPECT_EQ(ScopedSpan::toMicros(1500), 2u);
}

//===--------------------------------------------------------------===//
// OpenMetrics writer and validator.
//===--------------------------------------------------------------===//

TEST_F(MetricsTest, OpenMetricsNameSanitization) {
  EXPECT_EQ(openMetricsName("cache.wait_us"), "cache_wait_us");
  EXPECT_EQ(openMetricsName("explore/retries-total"),
            "explore_retries_total");
  EXPECT_EQ(openMetricsName("9lives"), "_9lives");
}

TEST_F(MetricsTest, ValidatorAcceptsWriterOutput) {
  OpenMetricsWriter W;
  W.family("demo_latency", "summary", "demo");
  W.sample("demo_latency", 1.5, {{"quantile", "0.5"}});
  W.sample("demo_latency_sum", 3.0);
  W.sample("demo_latency_count", 2);
  W.family("demo_gauge", "gauge");
  W.sample("demo_gauge", 7, {{"label", "with \"quotes\" and \\slash\\ \n"}});
  std::string Error;
  EXPECT_TRUE(validateOpenMetrics(W.finish(), &Error)) << Error;
}

TEST_F(MetricsTest, ValidatorRejectsMalformedDocuments) {
  // Missing # EOF.
  EXPECT_FALSE(validateOpenMetrics("# TYPE a gauge\na 1\n"));
  // Sample without a preceding TYPE declaration.
  EXPECT_FALSE(validateOpenMetrics("a 1\n# EOF\n"));
  // Value that is not a float.
  EXPECT_FALSE(validateOpenMetrics("# TYPE a gauge\na pancake\n# EOF\n"));
  // Content after the terminator.
  EXPECT_FALSE(
      validateOpenMetrics("# TYPE a gauge\na 1\n# EOF\na 2\n"));
  // Illegal metric name.
  EXPECT_FALSE(validateOpenMetrics("# TYPE a.b gauge\na.b 1\n# EOF\n"));
  std::string Error;
  EXPECT_FALSE(validateOpenMetrics("", &Error));
  EXPECT_FALSE(Error.empty());
}

//===--------------------------------------------------------------===//
// MetricsSampler with a fake clock (synchronous sampleOnce mode).
//===--------------------------------------------------------------===//

TEST_F(MetricsTest, SamplerComputesWindowRates) {
  double Now = 100.0;
  MetricsSamplerOptions O;
  O.Clock = [&Now] { return Now; };
  MetricsSampler S(O);

  Histogram &Evals = HistogramRegistry::global().histogram("eval.latency_us");
  Now = 101.0;
  MetricsSample First = S.sampleOnce();
  EXPECT_EQ(First.Seq, 1u);
  EXPECT_DOUBLE_EQ(First.Time, 101.0);
  EXPECT_DOUBLE_EQ(First.EvalsPerSec, 0.0);
  EXPECT_EQ(First.CacheHitRate, -1); // no cache lookups this window

  for (int I = 0; I != 10; ++I)
    Evals.record(100);
  Now = 103.0; // 10 evaluations over a 2 s window
  MetricsSample Second = S.sampleOnce();
  EXPECT_EQ(Second.Seq, 2u);
  EXPECT_DOUBLE_EQ(Second.EvalsPerSec, 5.0);
}

TEST_F(MetricsTest, SamplerProjectsEta) {
  double Now = 100.0;
  MetricsSamplerOptions O;
  O.Clock = [&Now] { return Now; };
  MetricsSampler S(O);
  S.setGauge("jobs_total", [] { return 4.0; });
  S.setGauge("jobs_done", [] { return 1.0; });
  Now = 102.0; // 1 of 4 jobs done after 2 s -> 6 s to go
  MetricsSample Sample = S.sampleOnce();
  EXPECT_DOUBLE_EQ(Sample.EtaSeconds, 6.0);
}

TEST_F(MetricsTest, SampleOutputsParseClean) {
  HistogramRegistry::global().histogram("eval.latency_us").record(250);
  MetricsSampler S({});
  S.setGauge("queue_depth", [] { return 3.0; });
  MetricsSample Sample = S.sampleOnce(/*Final=*/true);

  std::string Error;
  ASSERT_TRUE(isValidJson(Sample.JsonLine, &Error)) << Error;
  EXPECT_TRUE(validateOpenMetrics(Sample.Prom, &Error)) << Error;

  Expected<JsonValue> Doc = parseJson(Sample.JsonLine);
  ASSERT_TRUE(Doc.hasValue());
  EXPECT_TRUE(Doc->boolean("final"));
  const JsonValue *Gauges = Doc->find("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_DOUBLE_EQ(Gauges->num("queue_depth"), 3.0);
  EXPECT_EQ(Doc->uint("version"), 2u);
  ASSERT_NE(Doc->find("counters"), nullptr);
  ASSERT_NE(Doc->find("histograms"), nullptr);
  EXPECT_EQ(Doc->find("timers"), nullptr);
}

TEST_F(MetricsTest, SamplerWritesFilesAtomically) {
  const std::string Jsonl = tempPath("sampler.jsonl");
  const std::string Prom = tempPath("sampler.prom");
  std::remove(Jsonl.c_str());
  std::remove(Prom.c_str());

  MetricsSamplerOptions O;
  O.JsonlPath = Jsonl;
  O.PromPath = Prom;
  MetricsSampler S(O);
  HistogramRegistry::global().histogram("eval.latency_us").record(77);
  S.sampleOnce();
  MetricsSample Last = S.sampleOnce(/*Final=*/true);
  ASSERT_TRUE(S.ioStatus().isOk()) << S.ioStatus().message();

  std::ifstream In(Jsonl);
  ASSERT_TRUE(In.good());
  std::string Line;
  std::vector<std::string> Lines;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines)
    EXPECT_TRUE(isValidJson(L));
  Expected<JsonValue> Final = parseJson(Lines.back());
  ASSERT_TRUE(Final.hasValue());
  EXPECT_TRUE(Final->boolean("final"));
  EXPECT_EQ(Lines.back(), Last.JsonLine);

  std::ifstream PromIn(Prom);
  std::ostringstream PromText;
  PromText << PromIn.rdbuf();
  EXPECT_EQ(PromText.str(), Last.Prom);
  // No stale temp files after the renames.
  EXPECT_FALSE(std::ifstream(Jsonl + ".tmp").good());
  EXPECT_FALSE(std::ifstream(Prom + ".tmp").good());
  std::remove(Jsonl.c_str());
  std::remove(Prom.c_str());
}

TEST_F(MetricsTest, SamplerIoFailureIsStickyNotFatal) {
  MetricsSamplerOptions O;
  O.JsonlPath = "/nonexistent-dir/defacto-metrics.jsonl";
  MetricsSampler S(O);
  MetricsSample Sample = S.sampleOnce();
  EXPECT_FALSE(S.ioStatus().isOk());
  EXPECT_FALSE(Sample.JsonLine.empty()); // sampling continues in-memory
}

//===--------------------------------------------------------------===//
// Background thread and cancellation.
//===--------------------------------------------------------------===//

TEST_F(MetricsTest, BackgroundThreadSamplesUntilStopped) {
  const std::string Jsonl = tempPath("bg.jsonl");
  std::remove(Jsonl.c_str());
  MetricsSamplerOptions O;
  O.IntervalSeconds = 0.005;
  O.JsonlPath = Jsonl;
  MetricsSampler S(O);
  S.start();
  Histogram &H = HistogramRegistry::global().histogram("eval.latency_us");
  for (int I = 0; I != 20; ++I) {
    H.record(100 + I);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  S.stop();
  uint64_t Taken = S.samples();
  EXPECT_GE(Taken, 2u); // several periodic samples plus the final one
  EXPECT_TRUE(S.ioStatus().isOk());

  // stop() must be idempotent and the final line marked final.
  std::ifstream In(Jsonl);
  std::string Line, LastLine;
  while (std::getline(In, Line))
    if (!Line.empty())
      LastLine = Line;
  Expected<JsonValue> Final = parseJson(LastLine);
  ASSERT_TRUE(Final.hasValue());
  EXPECT_TRUE(Final->boolean("final"));
  std::remove(Jsonl.c_str());
}

TEST_F(MetricsTest, CancellationStopsTheWorker) {
  CancellationToken Token = CancellationToken::create();
  MetricsSamplerOptions O;
  O.IntervalSeconds = 0.005;
  O.Cancel = Token;
  MetricsSampler S(O);
  S.start();
  Token.requestCancel("test");
  // The worker exits within one interval of the token firing; after a
  // generous settle time the sample count must stop moving.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t N1 = S.samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  uint64_t N2 = S.samples();
  EXPECT_EQ(N1, N2);
  S.stop(); // still emits the explicit final sample
  EXPECT_EQ(S.samples(), N2 + 1);
}

//===--------------------------------------------------------------===//
// End-to-end agreement with the registries and the estimate cache.
//===--------------------------------------------------------------===//

TEST_F(MetricsTest, FinalSampleAgreesWithRegistriesAfterExploration) {
  uint64_t LookupsBefore = counterValue("cache", "lookups");

  Kernel K = buildKernel("FIR");
  ExplorerOptions Opts;
  auto Cache = std::make_shared<EstimateCache>();
  Opts.Cache = Cache;
  ExplorationResult Res = exploreExhaustive(K, Opts);
  EXPECT_GT(Res.EvaluationsUsed, 0u);

  MetricsSampler S({});
  MetricsSample Final = S.sampleOnce(/*Final=*/true);
  Expected<JsonValue> Doc = parseJson(Final.JsonLine);
  ASSERT_TRUE(Doc.hasValue());

  // Counters: the final sample embeds StatRegistry::toJson() verbatim,
  // so every counter matches the registry exactly.
  const JsonValue *Counters = Doc->find("counters");
  ASSERT_NE(Counters, nullptr);
  for (const StatSnapshot &C : StatRegistry::instance().snapshot())
    EXPECT_EQ(Counters->uint(C.Group + "." + C.Name), C.Value)
        << C.Group << "." << C.Name;

  // The cache counters in the sample agree with the cache's own
  // consistent snapshot (this test's cache was fresh, so the counter
  // delta is exactly its lookup count).
  EstimateCache::Stats St = Cache->stats();
  EXPECT_EQ(counterValue("cache", "lookups") - LookupsBefore, St.Lookups);

  // Histograms: the evaluation latency distribution in the sample is
  // the registry's, with one record per genuine evaluation.
  const JsonValue *Hists = Doc->find("histograms");
  ASSERT_NE(Hists, nullptr);
  const JsonValue *EvalHist = Hists->find("eval.latency_us");
  ASSERT_NE(EvalHist, nullptr);
  uint64_t RegistryCount = 0;
  for (const HistogramSnapshot &H : HistogramRegistry::global().snapshot())
    if (H.Name == "eval.latency_us")
      RegistryCount = H.Count;
  EXPECT_EQ(EvalHist->uint("count"), RegistryCount);
  EXPECT_GT(RegistryCount, 0u);
}

TEST_F(MetricsTest, StagedRouteTimesUnrollAsAPass) {
  // Every evaluation of a guided FIR walk unrolls one stage snapshot, and
  // that scope must land in the pass's span, not a separate name.
  ExplorationResult R = DesignSpaceExplorer(buildKernel("FIR"), {}).run();
  ASSERT_GT(R.EvaluationsUsed, 0u);
  EXPECT_GE(
      HistogramRegistry::global().histogram("pipeline.pass.unroll_us").count(),
      R.EvaluationsUsed);

  ReportOptions Report;
  Report.ShowPassTimings = true;
  std::string Text = renderExplorationReport(R, "FIR", Report);
  EXPECT_NE(Text.find("\n  unroll "), std::string::npos) << Text;
}

TEST_F(MetricsTest, WriteStatsFileRoundTrips) {
  HistogramRegistry::global().histogram("eval.latency_us").record(5);
  const std::string Path = tempPath("stats.json");
  std::remove(Path.c_str());
  ASSERT_TRUE(cl::writeStatsFile(Path));
  std::ifstream In(Path);
  std::ostringstream Text;
  Text << In.rdbuf();
  Expected<JsonValue> Doc = parseJson(Text.str());
  ASSERT_TRUE(Doc.hasValue());
  EXPECT_EQ(Doc->uint("version"), 2u);
  EXPECT_NE(Doc->find("counters"), nullptr);
  EXPECT_NE(Doc->find("histograms"), nullptr);
  EXPECT_EQ(Doc->find("timers"), nullptr);
  std::remove(Path.c_str());
}

} // namespace
