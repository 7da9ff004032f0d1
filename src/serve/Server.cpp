//===- Server.cpp ---------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Serve/Server.h"

#include "defacto/Core/CircuitBreaker.h"
#include "defacto/Core/EvaluationJournal.h"
#include "defacto/Core/SearchStrategy.h"
#include "defacto/Frontend/Parser.h"
#include "defacto/IR/IRUtils.h"
#include "defacto/Kernels/Kernels.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/MetricsSampler.h"
#include "defacto/Support/Stats.h"
#include "defacto/Transforms/PassRegistry.h"
#include "defacto/Transforms/UnrollAndJam.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sstream>
#include <unistd.h>
#include <unordered_map>

using namespace defacto;

DEFACTO_STATISTIC(NumServeRequests, "serve", "requests",
                  "explore requests received (admitted or rejected)");
DEFACTO_STATISTIC(NumServeHits, "serve", "hits",
                  "requests served entirely from warm cache state");
DEFACTO_STATISTIC(NumServeOverloads, "serve", "overloads",
                  "requests rejected by admission-queue backpressure");
DEFACTO_STATISTIC(NumServeDeadlineMisses, "serve", "deadline_misses",
                  "requests whose deadline expired before evaluation began");
DEFACTO_STATISTIC(NumServeErrors, "serve", "errors",
                  "invalid requests answered with an error reply");
DEFACTO_STATISTIC(NumServeBatches, "serve", "batches",
                  "coalesced BatchExplorer runs executed (a reply the "
                  "event loop answers runs none)");

namespace {

double nowSeconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double nowUs() { return nowSeconds() * 1e6; }

/// The serve-side request latency distribution (admission to reply).
Histogram &requestHistogram() {
  static Histogram &H =
      HistogramRegistry::global().histogram("serve.request_us");
  return H;
}

std::optional<TargetPlatform> platformByName(const std::string &Name) {
  for (const TargetPlatform &P : {TargetPlatform::wildstarPipelined(),
                                  TargetPlatform::wildstarNonPipelined()})
    if (P.Name == Name)
      return P;
  return std::nullopt;
}

} // namespace

/// One admitted explore request: replayed on the event loop, or waiting
/// for (or receiving) its batch.
struct DseServer::Pending {
  ServeRequest Req;
  std::shared_ptr<const KernelSession> Session;
  TargetPlatform Platform = TargetPlatform::wildstarPipelined();
  /// Self-cancels at the request deadline (invalid when none).
  CancellationToken Deadline;
  double DeadlineAtSeconds = 0; // absolute, steady clock; 0 = none
  double AdmitUs = 0; // admission start: latency covers session setup
  uint64_t Seq = 0;
  /// Stable request identity: the batch-job label, the journal job key,
  /// and the trace track.
  std::string JobName;
  /// Per-request recorder when the client asked for the decision digest.
  std::shared_ptr<TraceRecorder> DigestTrace;
  /// The connection the reply goes to.
  uint64_t Conn = 0;
};

/// Event-loop state of one client connection. Only the loop thread
/// touches it.
struct DseServer::Connection {
  UnixConnection Sock;
  /// An explore request is queued or running on the batch worker; the
  /// connection's next line waits for its reply.
  bool Busy = false;
  /// The peer closed its sending side: finish what is buffered, then
  /// close.
  bool ReadClosed = false;
  /// A shutdown request was answered: close once the reply is written.
  bool Closing = false;
};

DseServer::DseServer(ServeOptions O) : Opts(std::move(O)) {
  Untraced = std::make_shared<TraceRecorder>();
  Cache = std::make_shared<EstimateCache>();
  // Sized for the largest batch the worker coalesces; no pool when every
  // batch would run inline anyway.
  if (unsigned N = batchThreads(Opts.NumThreads, Opts.MaxBatch); N > 1)
    Pool = std::make_shared<ThreadPool>(N);
  if (Opts.BreakerThreshold > 0) {
    CircuitBreakerOptions B;
    B.FailureThreshold = Opts.BreakerThreshold;
    B.CooldownSeconds = Opts.BreakerCooldownSeconds;
    Breakers = std::make_shared<CircuitBreakerRegistry>(B);
  }
}

DseServer::~DseServer() { stop(); }

TraceRecorder &DseServer::recorder() const {
  return Opts.Trace ? *Opts.Trace : TraceRecorder::global();
}

Status DseServer::start() {
  if (Running.load())
    return Status::ok();
  if (!Opts.JournalPath.empty()) {
    Journal = std::make_shared<EvaluationJournal>(Opts.JournalPath);
    Expected<EvaluationJournal::Contents> Loaded =
        EvaluationJournal::load(Opts.JournalPath);
    if (!Loaded)
      return Loaded.status();
    Journal->adopt(*Loaded);
    ResumedEvals = Journal->replayInto(*Cache);
  }
  int Wake[2];
  if (::pipe(Wake) != 0)
    return Status::error(ErrorCode::Internal,
                         std::string("pipe(): ") + std::strerror(errno));
  for (int Fd : Wake)
    ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
  WakeRead = Wake[0];
  WakeWrite = Wake[1];
  Expected<UnixListener> L = UnixListener::listenOn(Opts.SocketPath);
  if (!L) {
    ::close(WakeRead);
    ::close(WakeWrite);
    WakeRead = WakeWrite = -1;
    return L.status();
  }
  Listener = std::move(*L);
  Stop.store(false);
  LoopExit.store(false);
  Running.store(true);
  LoopThread = std::thread([this] { eventLoop(); });
  WorkerThread = std::thread([this] { workerLoop(); });
  return Status::ok();
}

void DseServer::stop() {
  if (!Running.exchange(false))
    return;
  // The loop stops accepting and answers new explores "shutting down";
  // the worker finishes its in-flight batch and exits.
  Stop.store(true);
  QueueCV.notify_all();
  ShutdownCV.notify_all();
  if (WorkerThread.joinable())
    WorkerThread.join();
  // Fail whatever the worker left queued so no client waits forever.
  std::deque<std::shared_ptr<Pending>> Drained;
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    Drained.swap(Queue);
  }
  for (const std::shared_ptr<Pending> &P : Drained) {
    ServeResponse R;
    R.Id = P->Req.Id;
    R.RStatus = ServeStatus::Error;
    R.Reason = "daemon shutting down";
    postReply(P->Conn, R);
  }
  LoopExit.store(true);
  wakeLoop();
  if (LoopThread.joinable())
    LoopThread.join();
  ::close(WakeRead);
  ::close(WakeWrite);
  WakeRead = WakeWrite = -1;
  Listener.close();
}

void DseServer::waitForShutdownRequest() {
  std::unique_lock<std::mutex> Lock(ShutdownM);
  ShutdownCV.wait(Lock,
                  [this] { return ShutdownRequested.load() || Stop.load(); });
}

void DseServer::requestStop() {
  ShutdownRequested.store(true);
  ShutdownCV.notify_all();
}

uint64_t DseServer::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueM);
  return Queue.size();
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

void DseServer::wakeLoop() {
  // A full pipe already holds a pending wake-up, so EAGAIN is fine.
  char Byte = 1;
  (void)!::write(WakeWrite, &Byte, 1);
}

void DseServer::postReply(uint64_t Conn, const ServeResponse &R) {
  bool Wake;
  {
    std::lock_guard<std::mutex> Lock(ReplyM);
    // Only the first reply of a round needs a wake-up: the loop takes
    // every queued reply when it wakes.
    Wake = Replies.empty();
    Replies.emplace_back(Conn, R.toJson());
  }
  if (Wake)
    wakeLoop();
}

void DseServer::eventLoop() {
  std::unordered_map<uint64_t, Connection> Conns;
  uint64_t NextConn = 1;
  bool Accepting = true;
  std::vector<pollfd> Fds;
  std::vector<uint64_t> Ids; // Fds[I + Fixed] belongs to Conns[Ids[I]]
  std::vector<std::pair<uint64_t, std::string>> Ready;

  for (;;) {
    Fds.clear();
    Ids.clear();
    Fds.push_back({WakeRead, POLLIN, 0});
    const bool Listen = Accepting && !Stop.load();
    if (Listen)
      Fds.push_back({Listener.fd(), POLLIN, 0});
    const size_t Fixed = Fds.size();
    for (auto &[Id, C] : Conns) {
      // A busy connection waits on the worker, not the socket; reading
      // its next line early would only let a client pipeline unbounded
      // input. POLLHUP still reports a peer that went away.
      short Events = 0;
      if (C.Sock.hasPendingOutput())
        Events = POLLOUT;
      else if (!C.Busy && !C.ReadClosed)
        Events = POLLIN;
      Fds.push_back({C.Sock.fd(), Events, 0});
      Ids.push_back(Id);
    }
    if (::poll(Fds.data(), Fds.size(), -1) < 0) {
      if (errno == EINTR)
        continue;
      break; // cannot wait on anything; stop() still joins us
    }

    if (Fds[0].revents) {
      char Drain[64];
      while (::read(WakeRead, Drain, sizeof(Drain)) > 0) {
      }
      {
        std::lock_guard<std::mutex> Lock(ReplyM);
        Ready.swap(Replies);
      }
      for (auto &[Id, Line] : Ready) {
        auto It = Conns.find(Id);
        if (It == Conns.end())
          continue; // the client left before its reply was ready
        It->second.Busy = false;
        It->second.Sock.queueLine(Line);
        if (!pump(Id, It->second))
          Conns.erase(It);
      }
      Ready.clear();
      if (LoopExit.load())
        break;
    }

    while (Listen && (Fds[1].revents & POLLIN)) {
      Expected<std::optional<UnixConnection>> Accepted = Listener.accept();
      if (!Accepted)
        Accepting = false; // listener broken; keep serving live ones
      if (!Accepted || !Accepted.value())
        break;
      if (Accepted.value()->setNonBlocking().isOk())
        Conns.emplace(NextConn++, Connection{std::move(*Accepted.value())});
    }

    for (size_t I = 0; I != Ids.size(); ++I) {
      short Revents = Fds[Fixed + I].revents;
      if (!Revents)
        continue;
      auto It = Conns.find(Ids[I]);
      if (It == Conns.end())
        continue;
      Connection &C = It->second;
      bool Keep = !(Revents & (POLLERR | POLLNVAL));
      if (Keep && (Revents & POLLIN)) {
        Expected<bool> Open = C.Sock.fill();
        if (!Open)
          Keep = false; // transport error or a runaway line
        else if (!*Open)
          C.ReadClosed = true;
      } else if (Revents & POLLHUP) {
        Keep = false; // the peer is gone; nobody reads a reply
      }
      if (!Keep || !pump(It->first, C))
        Conns.erase(It);
    }
  }
  // Shutting down: write whatever the sockets take without blocking;
  // the connections close as Conns goes out of scope.
  for (auto &[Id, C] : Conns)
    (void)C.Sock.flush();
}

bool DseServer::pump(uint64_t Id, Connection &C) {
  for (;;) {
    Expected<bool> Flushed = C.Sock.flush();
    if (!Flushed)
      return false;
    if (!*Flushed)
      return true; // POLLOUT resumes the pump
    if (C.Closing)
      return false;
    if (C.Busy)
      return true; // the worker's reply resumes the pump
    std::optional<std::string> Line = C.Sock.takeLine();
    if (!Line)
      return !C.ReadClosed; // a partial line at EOF is dropped
    handleLine(Id, C, *Line);
  }
}

void DseServer::handleLine(uint64_t Id, Connection &C,
                           const std::string &Line) {
  ServeResponse Resp;
  Expected<ServeRequest> Req = parseServeRequest(Line);
  if (!Req) {
    Resp.RStatus = ServeStatus::Error;
    Resp.Reason = Req.status().message();
    ErrorReplies.fetch_add(1);
    ++NumServeErrors;
    C.Sock.queueLine(Resp.toJson());
    return;
  }
  if (Req->Cmd == "ping") {
    C.Sock.queueLine(handlePing(*Req).toJson());
    return;
  }
  if (Req->Cmd == "shutdown") {
    Resp.Id = Req->Id;
    Resp.RStatus = ServeStatus::Bye;
    C.Sock.queueLine(Resp.toJson());
    C.Closing = true;
    requestStop();
    return;
  }

  // Explore.
  Requests.fetch_add(1);
  ++NumServeRequests;
  Resp.Id = Req->Id;
  Expected<std::shared_ptr<Pending>> Admitted = admitPrep(*Req);
  if (!Admitted) {
    Resp.RStatus = ServeStatus::Error;
    Resp.Reason = Admitted.status().message();
    ErrorReplies.fetch_add(1);
    ++NumServeErrors;
    emitRequestTrace(*Req, Resp);
    C.Sock.queueLine(Resp.toJson());
    return;
  }
  std::shared_ptr<Pending> &P = *Admitted;
  P->Conn = Id;
  if (!Stop.load()) {
    if (P->Deadline.valid() && P->Deadline.cancelled()) {
      C.Sock.queueLine(deadlineReply(*P).toJson());
      return;
    }
    if (std::optional<ServeResponse> Warm = replayWarm(*P)) {
      C.Sock.queueLine(Warm->toJson());
      return;
    }
  }
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    if (Stop.load()) {
      Resp.RStatus = ServeStatus::Error;
      Resp.Reason = "daemon shutting down";
    } else if (Queue.size() >= Opts.MaxQueueDepth) {
      Resp.RStatus = ServeStatus::Overloaded;
      Resp.Reason = "admission queue full (depth " +
                    std::to_string(Queue.size()) + "); retry later";
    } else {
      Queue.push_back(P);
      C.Busy = true;
    }
  }
  if (C.Busy) {
    QueueCV.notify_one();
    return;
  }
  if (Resp.RStatus == ServeStatus::Overloaded) {
    Overloads.fetch_add(1);
    ++NumServeOverloads;
  }
  emitRequestTrace(*Req, Resp);
  C.Sock.queueLine(Resp.toJson());
}

std::optional<ServeResponse> DseServer::replayWarm(Pending &P) {
  ExplorerOptions O = jobOptions(P);
  O.Cache = Cache;
  O.CacheOnly = true;
  O.TraceLabel = P.JobName;
  // Decision events go where the batch run would send them: the digest
  // recorder, else the daemon's recorder. The latter receives them only
  // once the replay completes, so an abandoned replay leaves no trace.
  std::shared_ptr<TraceRecorder> Forward;
  if (!O.Trace) {
    if (recorder().enabled()) {
      Forward = std::make_shared<TraceRecorder>();
      Forward->setEnabled(true);
      O.Trace = Forward;
    } else {
      O.Trace = Untraced;
    }
  }
  EvaluationService Eval(P.Session, std::move(O));
  std::unique_ptr<SearchStrategy> Strategy =
      StrategyRegistry::instance().create(P.Req.Strategy);
  ExplorationResult E = runSearch(*Strategy, Eval);
  if (E.CacheMisses != 0) {
    if (P.DigestTrace)
      P.DigestTrace->clear();
    return std::nullopt;
  }
  if (Forward) {
    TraceRecorder &To = recorder();
    double Shift = To.nowUs() - Forward->nowUs(); // onto To's time base
    for (TraceEvent Ev : Forward->sortedEvents()) {
      Ev.TimestampUs += Shift;
      To.record(std::move(Ev));
    }
  }
  if (Journal)
    journalJob(*Journal, P.JobName, E);
  return exploreReply(P, E, /*BatchSeq=*/0, /*BatchSize=*/0);
}

ServeResponse DseServer::handlePing(const ServeRequest &Req) const {
  ServeResponse R;
  R.Id = Req.Id;
  R.RStatus = ServeStatus::Pong;
  R.CacheDesigns = Cache->size();
  R.SessionEntries = Sessions.size();
  R.Requests = Requests.load();
  R.ResumedEvaluations = ResumedEvals;
  return R;
}

Expected<std::shared_ptr<DseServer::Pending>>
DseServer::admitPrep(const ServeRequest &Req) {
  const double AdmitUs = nowUs();
  std::optional<TargetPlatform> Platform = platformByName(Req.Platform);
  if (!Platform)
    return Status::error(ErrorCode::InvalidInput,
                         "unknown platform '" + Req.Platform +
                             "' (known: wildstar-pipelined, "
                             "wildstar-nonpipelined)");
  if (!StrategyRegistry::instance().contains(Req.Strategy))
    return Status::error(ErrorCode::InvalidInput,
                         "unknown strategy '" + Req.Strategy +
                             "'; registered:\n" +
                             StrategyRegistry::instance().describe());
  if (!Req.Pipeline.empty()) {
    Expected<std::vector<std::string>> Parsed =
        parsePipelineText(Req.Pipeline);
    if (!Parsed)
      return Status::error(ErrorCode::InvalidInput,
                           "bad pipeline: " + Parsed.status().message());
  }

  // The session key is the request content the kernel is built from: the
  // name of a built-in kernel, or the inline source with the name it is
  // parsed under.
  std::string KernelName = Req.Kernel;
  std::string Key;
  if (!Req.Source.empty()) {
    if (KernelName.empty())
      KernelName = "custom";
    Key = "source:" + KernelName + '\n' + Req.Source;
  } else {
    if (!findKernelSpec(KernelName))
      return Status::error(ErrorCode::InvalidInput,
                           "unknown kernel '" + KernelName + "'");
    Key = "kernel:" + KernelName;
  }
  Expected<std::shared_ptr<const KernelSession>> Session =
      Sessions.getOrBuild(Key, [&]() -> Expected<Kernel> {
        if (Req.Source.empty())
          return buildKernel(KernelName);
        DiagnosticEngine Diags;
        std::optional<Kernel> K = parseKernel(Req.Source, KernelName, Diags);
        if (!K)
          return Status::error(ErrorCode::InvalidInput,
                               "kernel source rejected:\n" +
                                   Diags.toString());
        return std::move(*K);
      });
  if (!Session)
    return Session.status();

  auto P = std::make_shared<Pending>();
  P->Req = Req;
  P->Session = std::move(*Session);
  P->Platform = *Platform;
  P->JobName = requestJobName(Req, P->Session->fingerprint());
  if (Req.WantDigest) {
    P->DigestTrace = std::make_shared<TraceRecorder>();
    P->DigestTrace->setEnabled(true);
  }
  if (Req.DeadlineSeconds > 0) {
    P->DeadlineAtSeconds = nowSeconds() + Req.DeadlineSeconds;
    P->Deadline = CancellationToken::withDeadline(
        P->DeadlineAtSeconds, &nowSeconds, "request deadline");
  }
  P->AdmitUs = AdmitUs;
  P->Seq = NextSeq.fetch_add(1);
  return P;
}

std::string DseServer::requestJobName(const ServeRequest &Req,
                                      const Kernel &K) {
  return requestJobName(Req, kernelFingerprint(K));
}

std::string DseServer::requestJobName(const ServeRequest &Req,
                                      uint64_t KernelFp) {
  // The job name doubles as the journal job key and the digest's trace
  // track, so it must be a pure function of the request content — a
  // restarted daemon (or a standalone verification run) re-derives the
  // identical name.
  std::string KernelName =
      Req.Kernel.empty() ? std::string("custom") : Req.Kernel;
  std::ostringstream Name;
  char Fp[32];
  std::snprintf(Fp, sizeof(Fp), "%016llx",
                static_cast<unsigned long long>(KernelFp));
  Name << KernelName << '#' << Fp << " @ " << Req.Platform << " ; "
       << Req.Strategy;
  if (!Req.Pipeline.empty())
    Name << " ; pl=" << Req.Pipeline;
  Name << " ; b" << Req.Budget;
  return Name.str();
}

//===----------------------------------------------------------------------===//
// Batch worker
//===----------------------------------------------------------------------===//

void DseServer::workerLoop() {
  for (;;) {
    std::vector<std::shared_ptr<Pending>> Batch;
    {
      std::unique_lock<std::mutex> Lock(QueueM);
      QueueCV.wait(Lock, [this] { return Stop.load() || !Queue.empty(); });
      if (Stop.load())
        return; // stop() fails anything still queued
      while (!Queue.empty() && Batch.size() < std::max(1u, Opts.MaxBatch)) {
        Batch.push_back(Queue.front());
        Queue.pop_front();
      }
    }
    runBatch(std::move(Batch));
  }
}

ExplorerOptions DseServer::jobOptions(const Pending &P) const {
  ExplorerOptions O;
  O.Platform = P.Platform;
  O.MaxEvaluations = std::max(1u, P.Req.Budget);
  O.WatchdogSeconds = Opts.WatchdogSeconds;
  O.BaseTransforms.Pipeline = P.Req.Pipeline;
  if (P.DigestTrace)
    O.Trace = P.DigestTrace;
  if (P.DeadlineAtSeconds > 0)
    O.DeadlineSeconds = std::max(1e-3, P.DeadlineAtSeconds - nowSeconds());
  return O;
}

ServeResponse DseServer::deadlineReply(const Pending &P) {
  ServeResponse R;
  R.Id = P.Req.Id;
  R.RStatus = ServeStatus::Deadline;
  R.Reason = "deadline expired before evaluation began";
  R.LatencyUs = nowUs() - P.AdmitUs;
  DeadlineMisses.fetch_add(1);
  ++NumServeDeadlineMisses;
  requestHistogram().record(static_cast<uint64_t>(std::max(0.0, R.LatencyUs)));
  emitRequestTrace(P.Req, R);
  return R;
}

ServeResponse DseServer::exploreReply(const Pending &P,
                                      const ExplorationResult &E,
                                      uint64_t BatchSeq, unsigned BatchSize) {
  ServeResponse R;
  R.Id = P.Req.Id;
  R.RStatus = (E.Degraded || !E.SelectedFits) ? ServeStatus::Degraded
                                              : ServeStatus::Ok;
  R.Kernel = P.Req.Source.empty() ? P.Req.Kernel
                                  : (P.Req.Kernel.empty() ? "custom"
                                                          : P.Req.Kernel);
  R.Strategy = E.Strategy.empty() ? P.Req.Strategy : E.Strategy;
  R.Platform = P.Req.Platform;
  R.Selected = E.SelectedPoint.isUnrollOnly()
                   ? unrollVectorToString(E.Selected)
                   : E.SelectedPoint.toString();
  R.Cycles = E.SelectedEstimate.Cycles;
  R.Slices = E.SelectedEstimate.Slices;
  R.Speedup = E.speedup();
  R.Evaluations = E.EvaluationsUsed;
  R.Fits = E.SelectedFits;
  R.Degraded = E.Degraded;
  // Warmth is the job's own: a warm request coalesced with a cold one
  // still reports warm.
  R.Warm = E.CacheMisses == 0;
  R.CacheHits = E.CacheHits;
  R.CacheMisses = E.CacheMisses;
  R.BatchSeq = BatchSeq;
  R.BatchSize = BatchSize;
  R.LatencyUs = nowUs() - P.AdmitUs;
  if (P.DigestTrace)
    R.Digest = digestHash(P.DigestTrace->decisionDigest());
  if (R.Warm) {
    WarmHits.fetch_add(1);
    ++NumServeHits;
  }
  requestHistogram().record(static_cast<uint64_t>(std::max(0.0, R.LatencyUs)));
  emitRequestTrace(P.Req, R);
  return R;
}

void DseServer::runBatch(std::vector<std::shared_ptr<Pending>> Batch) {
  // Requests whose deadline lapsed while queued answer "deadline"
  // without spending any evaluation budget.
  std::vector<std::shared_ptr<Pending>> Live;
  for (std::shared_ptr<Pending> &P : Batch) {
    if (P->Deadline.valid() && P->Deadline.cancelled()) {
      postReply(P->Conn, deadlineReply(*P));
      continue;
    }
    Live.push_back(std::move(P));
  }
  if (Live.empty())
    return;

  const uint64_t Seq = Batches.fetch_add(1) + 1;
  ++NumServeBatches;
  InFlight.store(Live.size());

  BatchOptions B;
  B.Pool = Pool;
  B.Cache = Cache;
  B.Journal = Journal;
  B.Breakers = Breakers;
  B.Trace = Opts.Trace;
  BatchExplorer Engine(B);
  for (const std::shared_ptr<Pending> &P : Live)
    Engine.addJob(
        BatchJob(P->JobName, P->Session, jobOptions(*P), P->Req.Strategy));

  std::vector<BatchResult> Results = Engine.runAll();

  for (size_t I = 0; I != Results.size() && I != Live.size(); ++I)
    postReply(Live[I]->Conn,
              exploreReply(*Live[I], Results[I].Result, Seq,
                           static_cast<unsigned>(Live.size())));
  InFlight.store(0);
}

void DseServer::emitRequestTrace(const ServeRequest &Req,
                                 const ServeResponse &Resp) {
  TraceRecorder &R = recorder();
  if (!R.enabled())
    return;
  TraceEvent E;
  E.Track = "serve";
  E.Category = "serve.request";
  E.Name = Req.Kernel.empty() ? std::string("custom") : Req.Kernel;
  E.Ordinal = Resp.BatchSeq;
  E.Args = {{"status", serveStatusName(Resp.RStatus)},
            {"kernel", E.Name},
            {"platform", Req.Platform},
            {"strategy", Req.Strategy}};
  E.Runtime = {{"latency_us", std::to_string(Resp.LatencyUs)},
               {"warm", Resp.Warm ? "1" : "0"},
               {"batch", std::to_string(Resp.BatchSeq)},
               {"batch_size", std::to_string(Resp.BatchSize)}};
  R.record(std::move(E));
}

void DseServer::registerGauges(MetricsSampler &Sampler) {
  Sampler.setGauge("serve_queue_depth",
                   [this] { return static_cast<double>(queueDepth()); });
  Sampler.setGauge("serve_in_flight",
                   [this] { return static_cast<double>(InFlight.load()); });
  Sampler.setGauge("cache_designs",
                   [this] { return static_cast<double>(Cache->size()); });
  Sampler.setGauge("cache_sessions",
                   [this] { return static_cast<double>(Sessions.size()); });
  Sampler.setGauge("in_flight_evals", [] {
    return static_cast<double>(EvaluationService::inFlightEvaluations());
  });
  if (Breakers)
    Sampler.setGauge("breakers_open", [this] {
      double Open = 0;
      for (const auto &[Key, Snap] : Breakers->snapshotAll())
        if (Snap.Current != CircuitBreakerRegistry::State::Closed)
          ++Open;
      return Open;
    });
}
