//===- Server.h - The batching DSE daemon core -----------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exploration-as-a-service: a long-running, single-machine DSE server
/// that answers "which unroll vector?" over a Unix-domain socket and
/// keeps every expensive cache warm across requests. The paper prunes
/// ~99.7% of the design space per query; the server amortizes the rest
/// across queries — a repeat or near-repeat request consumes memoized
/// estimates and kernel sessions instead of re-running the synthesis
/// estimator.
///
/// Architecture (one DseServer instance per daemon):
///
///   event loop thread: one poll() over the listener and every
///   connection; non-blocking reads into per-connection line buffers
///   (each bounded by UnixConnection::MaxLineBytes), at most one request
///   outstanding per connection, so replies keep request order
///        │  parse + validate (bad requests answered at once, never
///        │  queued); ping/shutdown answered at once
///        ▼
///   replay the strategy against the cache alone (ExplorerOptions::
///   CacheOnly) ── every estimate cached? ─► reply from the loop
///        │ first miss: the replay is discarded     (no queue, no batch)
///        ▼
///   bounded admission queue ── full? ─► "overloaded" reply
///        │                              (backpressure, the 429 analogue)
///        ▼
///   batch worker: drains up to MaxBatch queued requests, coalesces them
///   into ONE BatchExplorer run over the process-lifetime EstimateCache
///   and worker pool, and hands each reply back to the loop (a wake-up
///   pipe), which writes it
///
/// The daemon runs a fixed set of threads — the loop, the batch worker
/// and the pool — however many connections it has served.
///
/// Admission resolves each request's kernel through a bounded LRU
/// KernelSessionCache keyed by request content (kernel name or inline
/// source), so a repeat request reuses the parsed kernel, its
/// fingerprint, saturation, normalized nest and dependence analysis
/// instead of re-deriving them.
///
/// Resilience reuses the Core seams wholesale: per-request Cancellation
/// deadline tokens (expired requests answer "deadline" without spending
/// budget), per-platform circuit breakers, and the evaluation journal —
/// with --journal every completed estimation is durable, and a restarted
/// daemon replays the journal into the shared cache so the interrupted
/// request is served from replayed state (chaos_serve_resume.sh proves
/// it under SIGKILL).
///
/// Observability: serve.requests/hits/overloads/deadline_misses/errors/
/// batches and cache.session_* counters, the serve.request_us latency
/// histogram, one "serve.request" trace event per reply, and
/// registerGauges() wires queue depth / in-flight jobs / cache sizes into
/// a MetricsSampler so defacto_monitor works unmodified against a live
/// daemon.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SERVE_SERVER_H
#define DEFACTO_SERVE_SERVER_H

#include "defacto/Core/BatchExplorer.h"
#include "defacto/Core/KernelSession.h"
#include "defacto/Serve/Protocol.h"
#include "defacto/Support/Socket.h"
#include "defacto/Support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace defacto {

class MetricsSampler;

/// Daemon configuration.
struct ServeOptions {
  /// Filesystem path of the Unix-domain socket to listen on.
  std::string SocketPath;
  /// Worker threads for coalesced batch runs (BatchOptions::NumThreads).
  /// A batch of one request runs inline on the batch worker; 1 runs
  /// every batch there. The default stays 2, not availableCores(): on a
  /// shared 4-vCPU host a core-sized pool lost all 6 alternating
  /// perfbench serve-warm pairs (p50 0.327 -> 0.369 ms, p90 0.52 -> 1.10
  /// ms), and serve-cold stayed within noise.
  unsigned NumThreads = 2;
  /// Admission bound: queued explore requests past this depth are
  /// answered "overloaded" immediately. Warm requests, answered from the
  /// cache on the event loop, never queue. 0 rejects every request that
  /// is not warm (useful in tests).
  unsigned MaxQueueDepth = 64;
  /// Requests coalesced into one BatchExplorer run.
  unsigned MaxBatch = 8;
  /// Per-evaluation hang watchdog (ExplorerOptions::WatchdogSeconds).
  double WatchdogSeconds = 0;
  /// Per-platform circuit breaker; 0 disables.
  unsigned BreakerThreshold = 0;
  double BreakerCooldownSeconds = 30;
  /// Crash-safety journal path; empty disables. When the file already
  /// exists at start(), its contents are replayed into the shared cache
  /// (daemon-restart resume).
  std::string JournalPath;
  /// Recorder for serve.* and dse.* events; TraceRecorder::global()
  /// when unset.
  std::shared_ptr<TraceRecorder> Trace;
};

/// The daemon core. start() spins the event-loop and batch-worker
/// threads; stop() drains and joins them. Tools embed it (tools/defacto_served.cpp);
/// tests and the serve_throughput bench run it in-process.
class DseServer {
public:
  explicit DseServer(ServeOptions Opts);
  ~DseServer();

  DseServer(const DseServer &) = delete;
  DseServer &operator=(const DseServer &) = delete;

  /// Binds the socket, replays the journal (when configured and
  /// present), and starts the event-loop + batch-worker threads.
  Status start();

  /// Stops accepting, finishes the in-flight batch, fails queued
  /// requests with a shutting-down error, writes what replies the
  /// sockets take without blocking, closes every connection and joins
  /// every thread. Idempotent.
  void stop();

  /// Blocks until a client's "shutdown" request (or requestStop()).
  void waitForShutdownRequest();

  /// Asks the daemon loop to exit (signal handlers and tests).
  void requestStop();

  /// The deterministic batch-job label for \p Req over a kernel with
  /// fingerprint \p KernelFp — also the journal job key and the trace
  /// track, so a restarted daemon (or a standalone run in a test)
  /// re-derives the identical identity.
  static std::string requestJobName(const ServeRequest &Req,
                                    uint64_t KernelFp);
  /// requestJobName() over kernelFingerprint(\p K).
  static std::string requestJobName(const ServeRequest &Req, const Kernel &K);

  /// Bounds of the kernel-session store: entries, and total key bytes
  /// (a kernel name, or the inline source it was parsed from).
  static constexpr size_t MaxSessions = 64;
  static constexpr size_t MaxSessionBytes = 4u << 20;

  //===--------------------------------------------------------------===//
  // Warm state and live gauges.
  //===--------------------------------------------------------------===//

  const std::string &socketPath() const { return Opts.SocketPath; }

  const std::shared_ptr<EstimateCache> &estimateCache() const {
    return Cache;
  }
  const KernelSessionCache &sessionCache() const { return Sessions; }

  /// Journal entries replayed into the cache at start().
  unsigned resumedEvaluations() const { return ResumedEvals; }

  uint64_t requestsReceived() const { return Requests.load(); }
  uint64_t warmHits() const { return WarmHits.load(); }
  uint64_t overloads() const { return Overloads.load(); }
  uint64_t deadlineMisses() const { return DeadlineMisses.load(); }
  uint64_t errorReplies() const { return ErrorReplies.load(); }
  uint64_t batchesRun() const { return Batches.load(); }
  uint64_t queueDepth() const;
  uint64_t inFlightJobs() const { return InFlight.load(); }

  /// Registers the daemon's gauges (serve_queue_depth, serve_in_flight,
  /// cache_designs, cache_sessions, in_flight_evals,
  /// breakers_open) on \p Sampler. Call before Sampler.start().
  void registerGauges(MetricsSampler &Sampler);

private:
  struct Pending;
  /// One client connection's event-loop state (Server.cpp).
  struct Connection;

  void eventLoop();
  /// Writes \p C's pending output and handles its buffered request lines
  /// until it waits on the batch worker or the socket. false once the
  /// connection is done (closed, shut down, or broken).
  bool pump(uint64_t Id, Connection &C);
  /// Answers or queues one request line from connection \p Id.
  void handleLine(uint64_t Id, Connection &C, const std::string &Line);
  /// Replays \p P's strategy against the estimate cache alone; the
  /// reply when every estimate was cached, std::nullopt (nothing
  /// recorded) at the first miss.
  std::optional<ServeResponse> replayWarm(Pending &P);
  void workerLoop();
  /// Runs one coalesced batch and hands every reply to the event loop.
  void runBatch(std::vector<std::shared_ptr<Pending>> Batch);
  /// Queues \p R for the event loop to write to connection \p Conn.
  void postReply(uint64_t Conn, const ServeResponse &R);
  void wakeLoop();
  ServeResponse handlePing(const ServeRequest &Req) const;
  /// Validates an explore request into a Pending (kernel session
  /// resolved, platform resolved); an error ServeResponse otherwise.
  Expected<std::shared_ptr<Pending>> admitPrep(const ServeRequest &Req);
  /// The exploration options both the replay and the batch run use.
  ExplorerOptions jobOptions(const Pending &P) const;
  /// The explore reply for \p E, and the "deadline" reply; both record
  /// the request's latency, counters and trace event.
  ServeResponse exploreReply(const Pending &P, const ExplorationResult &E,
                             uint64_t BatchSeq, unsigned BatchSize);
  ServeResponse deadlineReply(const Pending &P);
  void emitRequestTrace(const ServeRequest &Req, const ServeResponse &Resp);
  TraceRecorder &recorder() const;

  ServeOptions Opts;
  UnixListener Listener;

  // Process-lifetime warm state, shared by every served batch.
  std::shared_ptr<EstimateCache> Cache;
  std::shared_ptr<ThreadPool> Pool; // null when batches run inline
  std::shared_ptr<CircuitBreakerRegistry> Breakers;
  std::shared_ptr<EvaluationJournal> Journal;
  unsigned ResumedEvals = 0;
  KernelSessionCache Sessions{MaxSessions, MaxSessionBytes};

  std::atomic<bool> Running{false};
  std::atomic<bool> Stop{false};
  std::atomic<bool> ShutdownRequested{false};
  std::mutex ShutdownM;
  std::condition_variable ShutdownCV;

  mutable std::mutex QueueM;
  std::condition_variable QueueCV;
  std::deque<std::shared_ptr<Pending>> Queue;

  std::thread LoopThread;
  std::thread WorkerThread;
  /// Set by stop() once the worker is joined: the loop writes the last
  /// replies and exits.
  std::atomic<bool> LoopExit{false};
  /// Wake-up pipe: the worker and stop() write a byte, the loop polls
  /// the read end.
  int WakeRead = -1, WakeWrite = -1;
  std::mutex ReplyM;
  /// Batch replies the loop has not written yet: (connection, line).
  std::vector<std::pair<uint64_t, std::string>> Replies;
  /// Recorder for replays nobody traces (never enabled).
  std::shared_ptr<TraceRecorder> Untraced;

  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> WarmHits{0};
  std::atomic<uint64_t> Overloads{0};
  std::atomic<uint64_t> DeadlineMisses{0};
  std::atomic<uint64_t> ErrorReplies{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> InFlight{0};
  std::atomic<uint64_t> NextSeq{0};
};

} // namespace defacto

#endif // DEFACTO_SERVE_SERVER_H
