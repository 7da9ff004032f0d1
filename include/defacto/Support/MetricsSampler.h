//===- MetricsSampler.h - Periodic telemetry snapshots ---------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live-telemetry sampler: periodically snapshots every observability
/// surface — StatRegistry counters, HistogramRegistry distributions
/// (phase spans included), plus caller-registered gauges (queue
/// depth, in-flight evaluations, breaker states, job
/// progress) — and appends each snapshot as one JSONL line, flushed with
/// the journal's write-then-rename idiom so a tailing reader
/// (tools/defacto_monitor.cpp) never sees a torn file. The latest
/// snapshot is additionally exported as an OpenMetrics/Prometheus text
/// exposition document (OpenMetrics.h) for scrapers.
///
/// Derived rates ride along: sliding-window evaluations/sec (delta of
/// the eval.latency_us histogram count), window cache hit rate (delta of
/// the cache.* counters), and an ETA from the jobs_done/jobs_total
/// gauges.
///
/// Two driving modes:
///  - start()/stop(): a background thread paces itself on real wall time
///    (condition-variable wait, so stop() is immediate) and exits early
///    when the configured CancellationToken fires; stop() always takes
///    one final sample so end-of-run totals exactly match the registry.
///  - sampleOnce(): synchronous, for tests with a fake injected Clock
///    and for drivers that want an explicit final snapshot.
///
/// Timestamps come from the injected Clock only — the sampler never
/// stamps real time when a fake clock is configured, so test output is
/// deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_METRICSSAMPLER_H
#define DEFACTO_SUPPORT_METRICSSAMPLER_H

#include "defacto/Support/Cancellation.h"
#include "defacto/Support/Error.h"

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace defacto {

struct MetricsSamplerOptions {
  /// Seconds between background samples (start()/stop() mode).
  double IntervalSeconds = 1.0;
  /// JSONL time-series path; empty disables the file (samples are still
  /// returned from sampleOnce()).
  std::string JsonlPath;
  /// OpenMetrics exposition path, rewritten with the latest snapshot on
  /// every sample; empty disables it.
  std::string PromPath;
  /// Timestamp source, in seconds (monotonic). Defaults to the real
  /// steady clock; tests inject a fake.
  std::function<double()> Clock;
  /// Optional cancellation: the background thread exits within one
  /// interval of the token firing.
  CancellationToken Cancel;
};

/// One taken sample: the identifying fields plus the exact serialized
/// forms written to disk, so tests validate what readers will parse.
struct MetricsSample {
  uint64_t Seq = 0;
  double Time = 0;
  bool Final = false;
  /// Window evaluations/sec from the eval.latency_us histogram; 0 when
  /// no evaluation completed this window.
  double EvalsPerSec = 0;
  /// Window estimate-cache hit rate in [0,1]; -1 when no lookup
  /// happened this window.
  double CacheHitRate = -1;
  /// Seconds to completion projected from the jobs_done/jobs_total
  /// gauges; -1 when unknown (no such gauges, or no progress yet).
  double EtaSeconds = -1;
  /// The JSONL line appended for this sample (no trailing newline).
  std::string JsonLine;
  /// The OpenMetrics document written for this sample.
  std::string Prom;
};

/// Periodic snapshotter of counters + histograms + gauges.
/// Thread-safe: sampleOnce() serializes against the background thread.
class MetricsSampler {
public:
  explicit MetricsSampler(MetricsSamplerOptions Opts);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler &) = delete;
  MetricsSampler &operator=(const MetricsSampler &) = delete;

  /// Registers (or replaces) a named gauge, polled at every sample.
  /// Register before start(); the callback must be thread-safe.
  void setGauge(const std::string &Name, std::function<double()> Fn);

  /// Takes one sample now: snapshots every surface, appends the JSONL
  /// line, rewrites the exposition file, and returns the sample.
  MetricsSample sampleOnce(bool Final = false);

  /// Starts the background sampling thread. No-op if already running.
  void start();

  /// Stops the background thread (immediately — the pacing wait is
  /// interruptible) and takes one final sample. No-op when not running;
  /// safe to call without start() to just emit the final sample.
  void stop();

  /// Number of samples taken so far.
  uint64_t samples() const;

  /// Sticky status of file I/O: ok() until the first failed write or
  /// rename, then that failure. Sampling continues in-memory after an
  /// I/O error; drivers surface this once at the end.
  Status ioStatus() const;

private:
  void threadMain();
  MetricsSample sampleLocked(bool Final);
  void flushLocked();

  MetricsSamplerOptions Opts;

  mutable std::mutex M;
  std::condition_variable CV;
  std::thread Worker;
  bool Running = false;
  bool StopRequested = false;

  std::map<std::string, std::function<double()>> Gauges;
  std::vector<std::string> Lines; // full JSONL contents, rewritten atomically
  std::string LatestProm;
  Status IoStatus = Status::ok();

  uint64_t Seq = 0;
  double StartTime = 0;
  bool HavePrev = false;
  double PrevTime = 0;
  uint64_t PrevEvalCount = 0;
  uint64_t PrevCacheLookups = 0;
  uint64_t PrevCacheServed = 0;
};

} // namespace defacto

#endif // DEFACTO_SUPPORT_METRICSSAMPLER_H
