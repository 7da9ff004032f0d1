//===- defacto_served.cpp - The DSE daemon --------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exploration-as-a-service: binds a Unix-domain socket, serves
/// newline-delimited JSON explore/ping/shutdown requests (see
/// docs/SERVING.md), and keeps the estimate cache and the kernel-session
/// store warm for the process lifetime. With --journal the daemon is
/// crash-safe: every completed estimation is durable, and a restart
/// replays the journal into the cache before accepting connections.
///
/// Usage:
///   defacto_served --socket=/tmp/dse.sock [--threads=N]
///       [--queue-depth=N] [--max-batch=N] [--journal=PATH]
///       [--watchdog=SEC] [--breaker-threshold=N] [--breaker-cooldown=SEC]
///       [--metrics-jsonl=PATH] [--metrics-prom=PATH]
///       [--metrics-interval=SEC] [--trace-out=PATH] [--stats]
///       [--stats-out=PATH]
///
/// Runs until a client sends {"cmd":"shutdown"} or the process receives
/// SIGINT/SIGTERM. Exit 0 on a clean shutdown, 1 when the daemon could
/// not start, 2 on a bad command line.
///
//===----------------------------------------------------------------------===//

#include "defacto/Serve/Server.h"
#include "defacto/Support/CommandLine.h"
#include "defacto/Support/MetricsSampler.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>

using namespace defacto;

namespace {

DseServer *TheServer = nullptr;

void onSignal(int) {
  if (TheServer)
    TheServer->requestStop();
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--threads=N] [--queue-depth=N]\n"
               "  [--max-batch=N] [--journal=PATH] [--watchdog=SEC]\n"
               "  [--breaker-threshold=N] [--breaker-cooldown=SEC]\n"
               "  [--metrics-jsonl=PATH] [--metrics-prom=PATH]\n"
               "  [--metrics-interval=SEC] [--trace-out=PATH] [--stats]\n"
               "  [--stats-out=PATH]\n",
               Argv0);
  return 2;
}

double parseSeconds(const std::optional<std::string> &V, double Default) {
  if (!V)
    return Default;
  return std::strtod(V->c_str(), nullptr);
}

} // namespace

int main(int argc, char **argv) {
  cl::ArgList Args(argc, argv);
  cl::ObservabilityConfig Obs = cl::consumeObservabilityFlags(Args);

  // Every default comes from ServeOptions.
  ServeOptions Opts;
  Opts.SocketPath = Args.consumeValue("--socket").value_or("");
  Opts.NumThreads =
      Args.consumeUnsigned("--threads").value_or(Opts.NumThreads);
  Opts.MaxQueueDepth =
      Args.consumeUnsigned("--queue-depth").value_or(Opts.MaxQueueDepth);
  Opts.MaxBatch = Args.consumeUnsigned("--max-batch").value_or(Opts.MaxBatch);
  Opts.JournalPath = Args.consumeValue("--journal").value_or("");
  Opts.WatchdogSeconds =
      parseSeconds(Args.consumeValue("--watchdog"), Opts.WatchdogSeconds);
  Opts.BreakerThreshold = Args.consumeUnsigned("--breaker-threshold")
                              .value_or(Opts.BreakerThreshold);
  Opts.BreakerCooldownSeconds = parseSeconds(
      Args.consumeValue("--breaker-cooldown"), Opts.BreakerCooldownSeconds);

  std::string MetricsJsonl = Args.consumeValue("--metrics-jsonl").value_or("");
  std::string MetricsProm = Args.consumeValue("--metrics-prom").value_or("");
  double MetricsInterval =
      parseSeconds(Args.consumeValue("--metrics-interval"), 1.0);

  if (Opts.SocketPath.empty() || !Args.empty())
    return usage(argv[0]);

  DseServer Server(std::move(Opts));
  Status Started = Server.start();
  if (!Started.isOk()) {
    std::fprintf(stderr, "defacto_served: cannot start: %s\n",
                 Started.message().c_str());
    return 1;
  }

  MetricsSampler *Sampler = nullptr;
  MetricsSampler OwnedSampler{[&] {
    MetricsSamplerOptions M;
    M.IntervalSeconds = MetricsInterval;
    M.JsonlPath = MetricsJsonl;
    M.PromPath = MetricsProm;
    return M;
  }()};
  if (!MetricsJsonl.empty() || !MetricsProm.empty()) {
    Sampler = &OwnedSampler;
    Server.registerGauges(*Sampler);
    Sampler->start();
  }

  TheServer = &Server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::fprintf(stderr,
               "defacto_served: listening on %s (resumed %u journaled "
               "evaluations)\n",
               Server.socketPath().c_str(), Server.resumedEvaluations());

  Server.waitForShutdownRequest();

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  TheServer = nullptr;
  Server.stop();
  if (Sampler)
    Sampler->stop();

  std::fprintf(stderr,
               "defacto_served: served %llu requests (%llu warm, %llu "
               "overloaded, %llu deadline-missed, %llu errors) in %llu "
               "batches\n",
               static_cast<unsigned long long>(Server.requestsReceived()),
               static_cast<unsigned long long>(Server.warmHits()),
               static_cast<unsigned long long>(Server.overloads()),
               static_cast<unsigned long long>(Server.deadlineMisses()),
               static_cast<unsigned long long>(Server.errorReplies()),
               static_cast<unsigned long long>(Server.batchesRun()));
  if (!cl::finishObservability(Obs))
    return 1;
  return 0;
}
