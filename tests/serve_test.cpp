//===- serve_test.cpp - DSE daemon core tests -----------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// In-process tests of DseServer over a real Unix-domain socket: warm-cache
// behavior (a repeat request hits the shared cache, answers faster, and
// returns a bit-identical winner and decision digest — including against a
// standalone BatchExplorer run), admission backpressure, request deadlines,
// error replies, and journal-backed restart resume.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/EvaluationJournal.h"
#include "defacto/Serve/Server.h"
#include "defacto/Support/MetricsSampler.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/Stats.h"
#include "defacto/Transforms/UnrollAndJam.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <poll.h>
#include <thread>
#include <unistd.h>

using namespace defacto;

namespace {

std::string uniquePath(const char *Stem) {
  static std::atomic<unsigned> Counter{0};
  return std::string("/tmp/defacto_") + Stem + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(Counter.fetch_add(1));
}

/// Sends one request line and returns the parsed reply.
ServeResponse roundTrip(UnixConnection &Conn, const ServeRequest &Req) {
  Status Sent = Conn.sendLine(Req.toJson());
  EXPECT_TRUE(Sent.isOk()) << Sent.message();
  Expected<std::optional<std::string>> Line = Conn.recvLine();
  EXPECT_TRUE(Line && Line.value()) << "connection closed";
  Expected<ServeResponse> R = parseServeResponse(*Line.value());
  EXPECT_TRUE(static_cast<bool>(R)) << R.status().message();
  return R ? *R : ServeResponse();
}

ServeResponse oneShot(const std::string &Socket, const ServeRequest &Req) {
  Expected<UnixConnection> Conn = UnixConnection::connectTo(Socket);
  EXPECT_TRUE(static_cast<bool>(Conn)) << Conn.status().message();
  return roundTrip(*Conn, Req);
}

ServeRequest exploreFIR(unsigned Budget = 30) {
  ServeRequest Req;
  Req.Kernel = "FIR";
  Req.Budget = Budget;
  Req.WantDigest = true;
  return Req;
}

/// A small inline FIR whose outer trip count is 8 + \p Variant, so every
/// variant is a kernel no earlier request brought.
ServeRequest inlineFIR(unsigned Variant, unsigned Budget = 4) {
  unsigned Outer = 8 + Variant;
  ServeRequest Req;
  Req.Kernel = "fir" + std::to_string(Variant);
  Req.Source = "int S[" + std::to_string(Outer + 4) + "];\n"
               "int C[4];\n"
               "int D[" + std::to_string(Outer) + "];\n"
               "for (j = 0; j < " + std::to_string(Outer) + "; j++)\n"
               "  for (i = 0; i < 4; i++)\n"
               "    D[j] = D[j] + (S[i + j] * C[i]);\n";
  Req.Budget = Budget;
  Req.WantDigest = true;
  return Req;
}

ServeResponse receive(UnixConnection &Conn) {
  Expected<std::optional<std::string>> Line = Conn.recvLine();
  EXPECT_TRUE(Line && Line.value()) << "connection closed";
  Expected<ServeResponse> R = parseServeResponse(*Line.value());
  EXPECT_TRUE(static_cast<bool>(R)) << R.status().message();
  return R ? *R : ServeResponse();
}

ServeRequest exploreMM() {
  ServeRequest Req;
  Req.Kernel = "MM";
  Req.Budget = 60;
  return Req;
}

/// Holds the estimate-cache entry of \p Kernel's baseline design on the
/// default platform, so a cold request for that kernel (its first
/// evaluation is the baseline) blocks the batch worker until release().
class WorkerGate {
public:
  WorkerGate(EstimateCache &Cache, const char *Kernel) : Cache(Cache) {
    std::shared_ptr<const KernelSession> S =
        KernelSession::create(buildKernel(Kernel));
    WaitsBefore = Cache.stats().Waits;
    auto Found = Cache.lookupOrBegin(
        designCacheKey(S->fingerprint(), TargetPlatform::wildstarPipelined(),
                       TransformOptions{}, S->space().base()));
    Held = std::get<EstimateCache::Ticket>(std::move(Found));
  }
  ~WorkerGate() { release(); }

  void waitUntilBlocked() {
    while (Cache.stats().Waits == WaitsBefore)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  /// The blocked evaluation retries and computes the design itself.
  void release() {
    if (Held)
      Cache.abandon(std::move(*Held),
                    Status::error(ErrorCode::Cancelled, "gate released"));
    Held.reset();
  }

private:
  EstimateCache &Cache;
  uint64_t WaitsBefore = 0;
  std::optional<EstimateCache::Ticket> Held;
};

/// VmSize or Threads from /proc/self/status; 0 when unavailable.
uint64_t procStatus(const std::string &Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, Field.size() + 1, Field + ":") == 0)
      return std::strtoull(Line.c_str() + Field.size() + 1, nullptr, 10);
  return 0;
}

class ServeTest : public ::testing::Test {
protected:
  void waitForQueueDepth(uint64_t Depth) {
    while (Server->queueDepth() < Depth)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  void startServer(ServeOptions Opts) {
    Opts.SocketPath = SocketPath = uniquePath("serve_test") + ".sock";
    Server = std::make_unique<DseServer>(std::move(Opts));
    Status S = Server->start();
    ASSERT_TRUE(S.isOk()) << S.message();
  }

  void TearDown() override {
    if (Server)
      Server->stop();
  }

  std::string SocketPath;
  std::unique_ptr<DseServer> Server;
};

//===----------------------------------------------------------------------===//
// Warm-cache behavior
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, RepeatRequestServedWarmAndBitIdentical) {
  // Invocation counts of the two layers a warm request must skip; their
  // spans record only while stats recording is on.
  struct Recording {
    Recording() { StatRegistry::instance().setEnabled(true); }
    ~Recording() { StatRegistry::instance().setEnabled(false); }
  } StatsOn;
  Histogram &Estimator =
      HistogramRegistry::global().histogram("estimator.invoke_us");
  Histogram &Pipeline = HistogramRegistry::global().histogram("pipeline.run_us");

  startServer({});
  uint64_t EstimatorBefore = Estimator.count();
  uint64_t PipelineBefore = Pipeline.count();
  ServeResponse Cold = oneShot(SocketPath, exploreFIR());
  ASSERT_EQ(Cold.RStatus, ServeStatus::Ok) << Cold.Reason;
  EXPECT_FALSE(Cold.Warm);
  EXPECT_GT(Cold.CacheMisses, 0u);
  EXPECT_FALSE(Cold.Digest.empty());
  // The cold request really ran both layers, so the zero deltas below
  // are evidence, not a disabled counter.
  EXPECT_GT(Estimator.count(), EstimatorBefore);
  EXPECT_GT(Pipeline.count(), PipelineBefore);

  EstimatorBefore = Estimator.count();
  PipelineBefore = Pipeline.count();
  ServeResponse Hot = oneShot(SocketPath, exploreFIR());
  ASSERT_EQ(Hot.RStatus, ServeStatus::Ok) << Hot.Reason;
  EXPECT_TRUE(Hot.Warm);
  EXPECT_EQ(Hot.CacheMisses, 0u);
  EXPECT_GT(Hot.CacheHits, 0u);
  // The warm request did no estimator or transform-pipeline work at all.
  // (Its speed is gated by bench/serve_throughput and perfbench
  // serve-warm; a wall-clock ratio here is flaky under CPU contention.)
  EXPECT_EQ(Estimator.count(), EstimatorBefore);
  EXPECT_EQ(Pipeline.count(), PipelineBefore);

  // The warm answer is the cold answer, bit for bit: same winner, same
  // estimate (slices travel as hexfloat, so == is exact), same walk.
  EXPECT_EQ(Hot.Selected, Cold.Selected);
  EXPECT_EQ(Hot.Cycles, Cold.Cycles);
  EXPECT_EQ(Hot.Slices, Cold.Slices);
  EXPECT_EQ(Hot.Digest, Cold.Digest);

  EXPECT_EQ(Server->requestsReceived(), 2u);
  EXPECT_EQ(Server->warmHits(), 1u);
  // The repeat reused the kernel's session instead of rebuilding it.
  EXPECT_EQ(Server->sessionCache().misses(), 1u);
  EXPECT_EQ(Server->sessionCache().hits(), 1u);
}

TEST_F(ServeTest, WarmRequestCoalescedWithColdOneReportsWarm) {
  // One pool-less worker runs a batch's jobs in order, so of two
  // identical never-seen requests coalesced into one batch, the first
  // computes every estimate and the second finds them all cached: a warm
  // job beside a cold one. Both missed the cache at admission, so
  // neither was answered on the event loop.
  ServeOptions Opts;
  Opts.NumThreads = 1;
  startServer(std::move(Opts));
  WorkerGate Gate(*Server->estimateCache(), "MM");
  Expected<UnixConnection> Busy = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Busy));
  ASSERT_TRUE(Busy->sendLine(exploreMM().toJson()).isOk());
  Gate.waitUntilBlocked();

  Expected<UnixConnection> First = UnixConnection::connectTo(SocketPath);
  Expected<UnixConnection> Second = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(First && Second);
  ASSERT_TRUE(First->sendLine(exploreFIR().toJson()).isOk());
  waitForQueueDepth(1);
  ASSERT_TRUE(Second->sendLine(exploreFIR().toJson()).isOk());
  waitForQueueDepth(2);
  Gate.release();

  ServeResponse Cold = receive(*First);
  ServeResponse Warm = receive(*Second);
  EXPECT_EQ(receive(*Busy).RStatus, ServeStatus::Ok);
  ASSERT_EQ(Cold.RStatus, ServeStatus::Ok) << Cold.Reason;
  ASSERT_EQ(Warm.RStatus, ServeStatus::Ok) << Warm.Reason;
  EXPECT_EQ(Warm.BatchSeq, Cold.BatchSeq);
  EXPECT_EQ(Warm.BatchSize, 2u);
  // Warmth is the request's own, not its batch's.
  EXPECT_TRUE(Warm.Warm);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_GT(Warm.CacheHits, 0u);
  EXPECT_FALSE(Cold.Warm);
  EXPECT_GT(Cold.CacheMisses, 0u);
  EXPECT_EQ(Warm.Digest, Cold.Digest);
}

TEST_F(ServeTest, SessionStoreStaysBoundedAndEvictionKeepsAnswers) {
  startServer({});
  const KernelSessionCache &Sessions = Server->sessionCache();
  const size_t Cap = DseServer::MaxSessions, Extra = 3;
  ASSERT_EQ(Sessions.maxEntries(), Cap);
  ASSERT_EQ(Sessions.maxBytes(), DseServer::MaxSessionBytes);

  Expected<UnixConnection> Conn = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Conn));
  ServeResponse First;
  for (unsigned I = 0; I != Cap + Extra; ++I) {
    ServeResponse R = roundTrip(*Conn, inlineFIR(I));
    ASSERT_TRUE(R.RStatus == ServeStatus::Ok ||
                R.RStatus == ServeStatus::Degraded)
        << R.Reason;
    if (I == 0)
      First = R;
    EXPECT_LE(Sessions.size(), Cap);
    EXPECT_LE(Sessions.bytes(), Sessions.maxBytes());
  }
  EXPECT_EQ(Sessions.size(), Cap);
  EXPECT_EQ(Sessions.misses(), Cap + Extra);
  EXPECT_EQ(Sessions.evictions(), Extra);

  // Variant 0 was least recently used, so it was evicted first.
  // Re-serving it rebuilds the session and answers identically (from
  // the estimate cache, which outlives sessions).
  ServeResponse Again = roundTrip(*Conn, inlineFIR(0));
  EXPECT_EQ(Sessions.misses(), Cap + Extra + 1);
  EXPECT_EQ(Sessions.evictions(), Extra + 1);
  EXPECT_EQ(Again.Selected, First.Selected);
  EXPECT_EQ(Again.Cycles, First.Cycles);
  EXPECT_EQ(Again.Slices, First.Slices);
  EXPECT_EQ(Again.Evaluations, First.Evaluations);
  EXPECT_FALSE(First.Digest.empty());
  EXPECT_EQ(Again.Digest, First.Digest);
  EXPECT_TRUE(Again.Warm);
}

TEST_F(ServeTest, ServedDigestMatchesStandaloneRun) {
  startServer({});
  ServeResponse Served = oneShot(SocketPath, exploreFIR());
  ASSERT_EQ(Served.RStatus, ServeStatus::Ok) << Served.Reason;

  // The same exploration, run standalone the way the daemon runs it:
  // one BatchExplorer job with a fresh cache and its own recorder.
  auto Recorder = std::make_shared<TraceRecorder>();
  Recorder->setEnabled(true);
  ExplorerOptions O;
  O.Platform = TargetPlatform::wildstarPipelined();
  O.MaxEvaluations = 30;
  O.Trace = Recorder;
  BatchOptions B;
  B.Cache = std::make_shared<EstimateCache>();
  BatchExplorer Engine(B);
  Kernel K = buildKernel("FIR");
  // The digest lines embed the job's track label, so the standalone run
  // must carry the same deterministic request identity the daemon used.
  std::string JobName = DseServer::requestJobName(exploreFIR(), K);
  Engine.addJob(
      BatchJob(JobName, std::move(K), std::move(O), std::string("guided")));
  std::vector<BatchResult> Results = Engine.runAll();
  ASSERT_EQ(Results.size(), 1u);
  const ExplorationResult &E = Results[0].Result;

  EXPECT_EQ(Served.Selected, E.SelectedPoint.isUnrollOnly()
                                 ? unrollVectorToString(E.Selected)
                                 : E.SelectedPoint.toString());
  EXPECT_EQ(Served.Cycles, E.SelectedEstimate.Cycles);
  EXPECT_EQ(Served.Evaluations, E.EvaluationsUsed);
  // Decision digests hash the deterministic decision payloads; equality
  // proves the served walk evaluated exactly the standalone set. The
  // digest lines carry the job's track label, so hash them relabeled.
  std::vector<std::string> Lines = Recorder->decisionDigest();
  ASSERT_FALSE(Lines.empty());
  EXPECT_EQ(Served.Digest.size(), 16u);
  EXPECT_EQ(Served.Digest, digestHash(Lines));
}

TEST_F(ServeTest, HotKeysMatchCommittedGoldenAnswers) {
  // perfbench/golden.json was recorded from the daemon before kernel
  // sessions existed: every hot key's winner, bit-exact slices,
  // evaluations and decision digest. An oracle the serving code cannot
  // drift together with.
  std::ifstream In(DEFACTO_PERFBENCH_GOLDEN);
  ASSERT_TRUE(In.good()) << DEFACTO_PERFBENCH_GOLDEN;
  std::stringstream Text;
  Text << In.rdbuf();
  Expected<JsonValue> Golden = parseJson(Text.str());
  ASSERT_TRUE(static_cast<bool>(Golden)) << Golden.status().message();
  const JsonValue *Hot = Golden->find("serve");
  ASSERT_TRUE(Hot && Hot->isObject());
  ASSERT_EQ(Hot->Members.size(), 32u);

  startServer({});
  Expected<UnixConnection> Conn = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Conn));
  std::map<std::string, std::string> ColdReply;
  uint64_t ColdBatches = 0;
  // Twice: cold, then warm over stored sessions and cached estimates.
  for (int Pass = 0; Pass != 2; ++Pass) {
    if (Pass == 1)
      ColdBatches = Server->batchesRun();
    for (const auto &[Key, Want] : Hot->Members) {
      SCOPED_TRACE(Key + (Pass ? " (warm)" : " (cold)"));
      size_t A = Key.find('|'), B = Key.rfind('|');
      ServeRequest Req;
      Req.Kernel = Key.substr(0, A);
      Req.Platform = Key.substr(A + 1, B - A - 1);
      Req.Strategy = Key.substr(B + 1);
      Req.Budget = 40;
      Req.WantDigest = true;
      ASSERT_TRUE(Conn->sendLine(Req.toJson()).isOk());
      Expected<std::optional<std::string>> Line = Conn->recvLine();
      ASSERT_TRUE(Line && Line.value());
      Expected<JsonValue> Reply = parseJson(*Line.value());
      ASSERT_TRUE(static_cast<bool>(Reply)) << *Line.value();
      const JsonValue *Cycles = Reply->find("cycles");
      const JsonValue *Evals = Reply->find("evals");
      ASSERT_TRUE(Cycles && Evals) << *Line.value();
      std::string Answer = Reply->str("selected") + ";" + Cycles->Text +
                           ";" + Reply->str("slices") + ";" + Evals->Text;
      EXPECT_EQ(Answer, Want.str("answer"));
      EXPECT_EQ(Reply->str("decision_digest"), Want.str("digest"));
      EXPECT_EQ(Reply->boolean("warm"), Pass == 1);
      // The warm reply is the cold one, replayed on the event loop.
      std::string Identity = Answer + ";" + Reply->str("decision_digest");
      if (Pass == 0) {
        ColdReply[Key] = Identity;
      } else {
        EXPECT_EQ(Identity, ColdReply[Key]);
        Expected<ServeResponse> R = parseServeResponse(*Line.value());
        ASSERT_TRUE(static_cast<bool>(R));
        EXPECT_EQ(R->BatchSeq, 0u);
      }
    }
  }
  // Every warm reply came from the event loop: no batch ran for them.
  EXPECT_EQ(Server->batchesRun(), ColdBatches);
  EXPECT_EQ(Server->warmHits(), Hot->Members.size());
  // One session per kernel, shared by both platforms and strategies.
  EXPECT_EQ(Server->sessionCache().size(), 8u);
}

TEST_F(ServeTest, BatchStateIsReportedPerReply) {
  startServer({});
  ServeResponse R = oneShot(SocketPath, exploreFIR());
  EXPECT_EQ(R.BatchSeq, 1u);
  EXPECT_EQ(R.BatchSize, 1u);
  EXPECT_GT(R.LatencyUs, 0.0);
  EXPECT_EQ(Server->batchesRun(), 1u);
  EXPECT_GT(Server->estimateCache()->size(), 0u);
}

TEST_F(ServeTest, WarmRequestAnsweredWhileWorkerIsBusy) {
  startServer({});
  ServeResponse First = oneShot(SocketPath, exploreFIR());
  ASSERT_EQ(First.RStatus, ServeStatus::Ok) << First.Reason;

  // Hold the batch worker inside a cold MM exploration.
  WorkerGate Gate(*Server->estimateCache(), "MM");
  Expected<UnixConnection> Busy = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Busy));
  ASSERT_TRUE(Busy->sendLine(exploreMM().toJson()).isOk());
  Gate.waitUntilBlocked();

  // The warm repeat is answered while the worker is still held.
  Expected<UnixConnection> WarmConn = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(WarmConn));
  ASSERT_TRUE(WarmConn->sendLine(exploreFIR().toJson()).isOk());
  pollfd Ready{WarmConn->fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&Ready, 1, 60000), 1)
      << "the warm request waited for the held batch worker";
  ServeResponse Warm = receive(*WarmConn);
  ASSERT_EQ(Warm.RStatus, ServeStatus::Ok) << Warm.Reason;
  EXPECT_TRUE(Warm.Warm);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Warm.CacheHits, First.CacheHits + First.CacheMisses);
  EXPECT_EQ(Warm.BatchSeq, 0u);
  EXPECT_EQ(Warm.BatchSize, 0u);
  EXPECT_EQ(Warm.Selected, First.Selected);
  EXPECT_EQ(Warm.Slices, First.Slices);
  EXPECT_EQ(Warm.Evaluations, First.Evaluations);
  EXPECT_EQ(Warm.Digest, First.Digest);
  EXPECT_EQ(Server->inFlightJobs(), 1u);
  EXPECT_EQ(Server->batchesRun(), 2u);

  Gate.release();
  ServeResponse Blocked = receive(*Busy);
  EXPECT_EQ(Blocked.RStatus, ServeStatus::Ok) << Blocked.Reason;
  EXPECT_EQ(Blocked.BatchSeq, 2u);
}

TEST_F(ServeTest, UncachedRefinementFallsBackToTheQueue) {
  // guided+tile walks exactly as guided does, then probes interchange
  // and tile points. After a guided request the walk is cached but the
  // refinement is not: the replay misses, is discarded, and the request
  // runs as a batch that answers as a fresh daemon does.
  ServeRequest Guided;
  Guided.Kernel = "JAC";
  Guided.Budget = 40;
  Guided.WantDigest = true;
  ServeRequest Tile = Guided;
  Tile.Strategy = "guided+tile";

  startServer({});
  ServeResponse Walk = oneShot(SocketPath, Guided);
  ASSERT_EQ(Walk.RStatus, ServeStatus::Ok) << Walk.Reason;
  ServeResponse Refined = oneShot(SocketPath, Tile);
  ASSERT_EQ(Refined.RStatus, ServeStatus::Ok) << Refined.Reason;
  EXPECT_EQ(Refined.BatchSeq, 2u);
  EXPECT_FALSE(Refined.Warm);
  EXPECT_GE(Refined.CacheHits, Walk.CacheMisses);
  EXPECT_GT(Refined.CacheMisses, 0u);
  // Now the refinement is cached too: the repeat is replayed.
  ServeResponse Again = oneShot(SocketPath, Tile);
  EXPECT_EQ(Again.BatchSeq, 0u);
  EXPECT_TRUE(Again.Warm);

  ServeOptions FreshOpts;
  FreshOpts.SocketPath = uniquePath("serve_test_fresh") + ".sock";
  DseServer Fresh(FreshOpts);
  ASSERT_TRUE(Fresh.start().isOk());
  ServeResponse Want = oneShot(FreshOpts.SocketPath, Tile);
  Fresh.stop();
  ASSERT_EQ(Want.RStatus, ServeStatus::Ok) << Want.Reason;
  EXPECT_NE(Want.Selected, Walk.Selected); // the refinement won
  for (const ServeResponse *R : {&Refined, &Again}) {
    EXPECT_EQ(R->Selected, Want.Selected);
    EXPECT_EQ(R->Cycles, Want.Cycles);
    EXPECT_EQ(R->Slices, Want.Slices);
    EXPECT_EQ(R->Evaluations, Want.Evaluations);
    // The abandoned replay's partial walk left nothing in the digest.
    EXPECT_EQ(R->Digest, Want.Digest);
  }
}

TEST_F(ServeTest, ReplayedRequestJournalsTheBatchRecord) {
  // The journaled job record of a request, answered from the event loop
  // on one daemon and by a batch on a fresh one.
  ServeRequest Probe = exploreFIR(31);
  auto recordOf = [&](const std::string &Journal) {
    Expected<EvaluationJournal::Contents> C = EvaluationJournal::load(Journal);
    EXPECT_TRUE(static_cast<bool>(C));
    std::string Name = DseServer::requestJobName(Probe, buildKernel("FIR"));
    for (const JournalJobRecord &J : C->Jobs)
      if (J.Name == Name)
        return J;
    ADD_FAILURE() << "no job record for " << Name << " in " << Journal;
    return JournalJobRecord();
  };

  std::string Replayed = uniquePath("serve_journal_inline") + ".jsonl";
  ServeOptions Opts;
  Opts.JournalPath = Replayed;
  startServer(Opts);
  ASSERT_EQ(oneShot(SocketPath, exploreFIR(30)).RStatus, ServeStatus::Ok);
  // The budget is not binding, so the same walk is fully cached.
  ServeResponse Inline = oneShot(SocketPath, Probe);
  ASSERT_EQ(Inline.RStatus, ServeStatus::Ok) << Inline.Reason;
  ASSERT_EQ(Inline.BatchSeq, 0u);
  Server->stop();

  std::string Batched = uniquePath("serve_journal_batch") + ".jsonl";
  Opts.JournalPath = Batched;
  startServer(Opts);
  ServeResponse Cold = oneShot(SocketPath, Probe);
  ASSERT_EQ(Cold.RStatus, ServeStatus::Ok) << Cold.Reason;
  ASSERT_EQ(Cold.BatchSeq, 1u);
  Server->stop();

  JournalJobRecord A = recordOf(Replayed), B = recordOf(Batched);
  EXPECT_EQ(A.Strategy, B.Strategy);
  EXPECT_EQ(A.Selected, B.Selected);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(std::memcmp(&A.Slices, &B.Slices, sizeof(double)), 0);
  EXPECT_EQ(A.Evaluations, B.Evaluations);
  EXPECT_EQ(A.Degraded, B.Degraded);
  EXPECT_EQ(A.Fits, B.Fits);
  EXPECT_EQ(A.Evaluations, Inline.Evaluations);
  std::remove(Replayed.c_str());
  std::remove(Batched.c_str());
}

//===----------------------------------------------------------------------===//
// Backpressure and deadlines
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ZeroDepthQueueAnswersOverloaded) {
  ServeOptions Opts;
  Opts.MaxQueueDepth = 0; // admit nothing: every explore is a 429
  startServer(std::move(Opts));
  ServeResponse R = oneShot(SocketPath, exploreFIR());
  EXPECT_EQ(R.RStatus, ServeStatus::Overloaded);
  EXPECT_NE(R.Reason.find("queue full"), std::string::npos) << R.Reason;
  EXPECT_EQ(Server->overloads(), 1u);

  // Ping is never queued: it still answers on an overloaded daemon.
  ServeRequest Ping;
  Ping.Cmd = "ping";
  EXPECT_EQ(oneShot(SocketPath, Ping).RStatus, ServeStatus::Pong);
}

TEST_F(ServeTest, ExpiredDeadlineAnsweredWithoutEvaluation) {
  ServeOptions Opts;
  Opts.MaxBatch = 1; // keep the slow job and the doomed one in
  startServer(std::move(Opts)); // separate batches

  // Occupy the single batch worker with a cold MM exploration, then
  // queue a request whose deadline lapses while it waits.
  Expected<UnixConnection> Slow = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Slow));
  ServeRequest Busy;
  Busy.Kernel = "MM";
  Busy.Budget = 60;
  ASSERT_TRUE(Slow->sendLine(Busy.toJson()).isOk());

  Expected<UnixConnection> Doomed = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Doomed));
  ServeRequest Req = exploreFIR();
  Req.DeadlineSeconds = 1e-6;
  ASSERT_TRUE(Doomed->sendLine(Req.toJson()).isOk());

  Expected<std::optional<std::string>> DoomedReply = Doomed->recvLine();
  ASSERT_TRUE(DoomedReply && DoomedReply.value());
  Expected<ServeResponse> R = parseServeResponse(*DoomedReply.value());
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->RStatus, ServeStatus::Deadline);
  EXPECT_EQ(Server->deadlineMisses(), 1u);

  Expected<std::optional<std::string>> SlowReply = Slow->recvLine();
  ASSERT_TRUE(SlowReply && SlowReply.value());
  Expected<ServeResponse> SR = parseServeResponse(*SlowReply.value());
  ASSERT_TRUE(static_cast<bool>(SR));
  EXPECT_EQ(SR->RStatus, ServeStatus::Ok);
}

//===----------------------------------------------------------------------===//
// Validation and protocol errors
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, InvalidRequestsAnsweredWithErrors) {
  startServer({});
  Expected<UnixConnection> Conn = UnixConnection::connectTo(SocketPath);
  ASSERT_TRUE(static_cast<bool>(Conn));

  auto expectError = [&](const std::string &Line,
                         const std::string &ReasonPart) {
    ASSERT_TRUE(Conn->sendLine(Line).isOk());
    Expected<std::optional<std::string>> Reply = Conn->recvLine();
    ASSERT_TRUE(Reply && Reply.value());
    Expected<ServeResponse> R = parseServeResponse(*Reply.value());
    ASSERT_TRUE(static_cast<bool>(R)) << *Reply.value();
    EXPECT_EQ(R->RStatus, ServeStatus::Error) << *Reply.value();
    EXPECT_NE(R->Reason.find(ReasonPart), std::string::npos) << R->Reason;
  };

  expectError("this is not json", "not valid JSON");
  expectError("{\"cmd\":\"fly\"}", "unknown cmd");
  expectError("{\"cmd\":\"explore\"}", "needs \"kernel\" or \"source\"");
  expectError("{\"kernel\":\"NOPE\"}", "unknown kernel 'NOPE'");
  expectError("{\"kernel\":\"FIR\",\"platform\":\"asic\"}",
              "unknown platform 'asic'");
  expectError("{\"kernel\":\"FIR\",\"strategy\":\"psychic\"}",
              "unknown strategy 'psychic'");
  expectError("{\"kernel\":\"FIR\",\"pipeline\":\"warp-drive\"}",
              "bad pipeline");
  expectError("{\"kernel\":\"FIR\",\"deadline_s\":-1}", "non-negative");
  EXPECT_EQ(Server->errorReplies(), 8u);
  // None of these reached the batch engine.
  EXPECT_EQ(Server->batchesRun(), 0u);
}

TEST_F(ServeTest, InlineSourceKernelExplores) {
  startServer({});
  ServeRequest Req;
  Req.Kernel = "tinyfir";
  Req.Source = "int S[24];\n"
               "int C[8];\n"
               "int D[16];\n"
               "for (j = 0; j < 16; j++)\n"
               "  for (i = 0; i < 8; i++)\n"
               "    D[j] = D[j] + (S[i + j] * C[i]);\n";
  Req.Budget = 20;
  ServeResponse R = oneShot(SocketPath, Req);
  ASSERT_TRUE(R.RStatus == ServeStatus::Ok ||
              R.RStatus == ServeStatus::Degraded)
      << R.Reason;
  EXPECT_EQ(R.Kernel, "tinyfir");
  EXPECT_GT(R.Evaluations, 0u);
}

TEST_F(ServeTest, PingReportsWarmState) {
  startServer({});
  ServeRequest Ping;
  Ping.Cmd = "ping";
  ServeResponse Before = oneShot(SocketPath, Ping);
  EXPECT_EQ(Before.RStatus, ServeStatus::Pong);
  EXPECT_EQ(Before.CacheDesigns, 0u);

  oneShot(SocketPath, exploreFIR());
  ServeResponse After = oneShot(SocketPath, Ping);
  EXPECT_GT(After.CacheDesigns, 0u);
  EXPECT_EQ(After.SessionEntries, 1u);
  EXPECT_EQ(After.Requests, 1u);
}

TEST_F(ServeTest, GaugesRegisterOnSampler) {
  startServer({});
  oneShot(SocketPath, exploreFIR());
  MetricsSampler Sampler{MetricsSamplerOptions{}};
  Server->registerGauges(Sampler);
  MetricsSample S = Sampler.sampleOnce();
  // Gauge values land in the serialized sample the monitor reads.
  for (const char *Name : {"serve_queue_depth", "serve_in_flight",
                           "cache_designs", "cache_sessions",
                           "in_flight_evals"})
    EXPECT_NE(S.JsonLine.find(std::string("\"") + Name + "\""),
              std::string::npos)
        << Name << " missing from " << S.JsonLine;
}

TEST_F(ServeTest, SequentialConnectionsDoNotGrowTheDaemon) {
  // A client that connects once per request must not grow the daemon:
  // no thread, stack or buffer outlives its connection.
  startServer({});
  ServeRequest Ping;
  Ping.Cmd = "ping";
  auto connectAndPing = [&] {
    return oneShot(SocketPath, Ping).RStatus == ServeStatus::Pong;
  };
  // Warm-up, so the daemon's threads have their allocator arenas.
  for (int I = 0; I != 20; ++I)
    ASSERT_TRUE(connectAndPing());
  uint64_t VmBefore = procStatus("VmSize"), ThreadsBefore = procStatus("Threads");
  if (VmBefore == 0)
    GTEST_SKIP() << "/proc/self/status is not readable here";
  for (int I = 0; I != 500; ++I)
    ASSERT_TRUE(connectAndPing());
  uint64_t VmAfter = procStatus("VmSize");
  EXPECT_LT(VmAfter, VmBefore + 64 * 1024) // kB
      << "VmSize grew from " << VmBefore << " to " << VmAfter << " kB";
  EXPECT_EQ(procStatus("Threads"), ThreadsBefore);
}

//===----------------------------------------------------------------------===//
// Shutdown protocol and journal restart
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ShutdownCommandUnblocksWaiter) {
  startServer({});
  std::thread Waiter([&] { Server->waitForShutdownRequest(); });
  ServeRequest Req;
  Req.Cmd = "shutdown";
  ServeResponse R = oneShot(SocketPath, Req);
  EXPECT_EQ(R.RStatus, ServeStatus::Bye);
  Waiter.join(); // returns only once the request was observed
  Server->stop();
}

TEST_F(ServeTest, JournalRestartServesFromReplayedState) {
  std::string Journal = uniquePath("serve_journal") + ".jsonl";
  ServeOptions Opts;
  Opts.JournalPath = Journal;
  startServer(std::move(Opts));
  ServeResponse Cold = oneShot(SocketPath, exploreFIR());
  ASSERT_EQ(Cold.RStatus, ServeStatus::Ok) << Cold.Reason;
  EXPECT_FALSE(Cold.Warm);
  Server->stop();
  Server.reset();

  // A restarted daemon replays the journal into its fresh cache before
  // accepting connections: the "first" request after restart is warm
  // and bit-identical to the pre-crash answer.
  ServeOptions Opts2;
  Opts2.JournalPath = Journal;
  startServer(std::move(Opts2));
  EXPECT_GT(Server->resumedEvaluations(), 0u);
  ServeResponse Resumed = oneShot(SocketPath, exploreFIR());
  ASSERT_EQ(Resumed.RStatus, ServeStatus::Ok) << Resumed.Reason;
  EXPECT_TRUE(Resumed.Warm);
  EXPECT_EQ(Resumed.CacheMisses, 0u);
  EXPECT_EQ(Resumed.Selected, Cold.Selected);
  EXPECT_EQ(Resumed.Cycles, Cold.Cycles);
  EXPECT_EQ(Resumed.Slices, Cold.Slices);
  EXPECT_EQ(Resumed.Digest, Cold.Digest);
  std::remove(Journal.c_str());
}

//===----------------------------------------------------------------------===//
// Protocol serialization
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, RequestRoundTrips) {
  ServeRequest R;
  R.Id = "r-42";
  R.Kernel = "MM";
  R.Platform = "wildstar-nonpipelined";
  R.Strategy = "portfolio";
  R.Pipeline = "normalize,unroll";
  R.Budget = 77;
  R.DeadlineSeconds = 1.5;
  R.WantDigest = true;
  Expected<ServeRequest> Back = parseServeRequest(R.toJson());
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.status().message();
  EXPECT_EQ(Back->Id, R.Id);
  EXPECT_EQ(Back->Kernel, R.Kernel);
  EXPECT_EQ(Back->Platform, R.Platform);
  EXPECT_EQ(Back->Strategy, R.Strategy);
  EXPECT_EQ(Back->Pipeline, R.Pipeline);
  EXPECT_EQ(Back->Budget, R.Budget);
  EXPECT_EQ(Back->DeadlineSeconds, R.DeadlineSeconds);
  EXPECT_TRUE(Back->WantDigest);
}

TEST(ServeProtocolTest, ResponseRoundTripsSlicesExactly) {
  ServeResponse R;
  R.RStatus = ServeStatus::Ok;
  R.Id = "x";
  R.Kernel = "FIR";
  R.Strategy = "guided";
  R.Platform = "wildstar-pipelined";
  R.Selected = "(16, 8)";
  R.Cycles = 267;
  R.Slices = 6183.0000000000009; // survives only as hexfloat
  R.Speedup = 31.4;
  R.Evaluations = 7;
  R.Warm = true;
  R.CacheHits = 7;
  R.BatchSeq = 3;
  R.BatchSize = 2;
  R.LatencyUs = 234.4;
  R.Digest = "b2b79999a8694891";
  Expected<ServeResponse> Back = parseServeResponse(R.toJson());
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.status().message();
  EXPECT_EQ(Back->RStatus, ServeStatus::Ok);
  EXPECT_EQ(Back->Selected, R.Selected);
  EXPECT_EQ(Back->Cycles, R.Cycles);
  // Bit-exact double round-trip, the journal guarantee on the wire.
  EXPECT_EQ(std::memcmp(&Back->Slices, &R.Slices, sizeof(double)), 0);
  EXPECT_TRUE(Back->Warm);
  EXPECT_EQ(Back->Digest, R.Digest);
}

TEST(ServeProtocolTest, DigestHashIsOrderSensitiveAndStable) {
  EXPECT_EQ(digestHash({}), digestHash({}));
  EXPECT_NE(digestHash({"a", "b"}), digestHash({"b", "a"}));
  // Line boundaries matter: {"ab"} != {"a","b"}.
  EXPECT_NE(digestHash({"ab"}), digestHash({"a", "b"}));
  EXPECT_EQ(digestHash({"a", "b"}).size(), 16u);
}

} // namespace
