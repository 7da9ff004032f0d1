//===- BatchExplorer.h - Multi-kernel exploration driver -------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explores many (kernel, platform) jobs concurrently on one worker pool
/// with one shared EstimateCache. Each job runs the ordinary sequential
/// engine inside a pool worker — jobs feed each other only through the
/// shared cache, never through nested pool submission (which could
/// deadlock a bounded pool).
/// Results come back in submission order and each job's outcome is
/// identical to running it alone; jobs over the same kernel and platform
/// additionally hit each other's cached estimates.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_BATCHEXPLORER_H
#define DEFACTO_CORE_BATCHEXPLORER_H

#include "defacto/Core/Explorer.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace defacto {

class CircuitBreakerRegistry;
class EvaluationJournal;

/// One unit of batch work: explore one kernel for one platform.
struct BatchJob {
  std::string Name; // label for reports; defaults to the kernel's name
  Kernel K;
  ExplorerOptions Opts;
  /// Legacy two-mode selector, honored when Strategy is empty.
  enum class Mode { Guided, Exhaustive } SearchMode = Mode::Guided;
  /// StrategyRegistry name ("guided", "portfolio", ...); wins over
  /// SearchMode when non-empty. Unknown names degrade to guided with a
  /// note in the result's trace — a batch never aborts over one job.
  std::string Strategy;
  /// Prebuilt per-kernel state (KernelSession.h) to explore over. Unset:
  /// the job builds a private session from K. Set: K is an empty kernel
  /// carrying only the session kernel's name, and the job skips
  /// re-deriving what the session holds.
  std::shared_ptr<const KernelSession> Session;

  BatchJob(std::string Name, Kernel K, ExplorerOptions Opts,
           Mode SearchMode = Mode::Guided)
      : Name(std::move(Name)), K(std::move(K)), Opts(std::move(Opts)),
        SearchMode(SearchMode) {}
  BatchJob(std::string Name, Kernel K, ExplorerOptions Opts,
           std::string Strategy)
      : Name(std::move(Name)), K(std::move(K)), Opts(std::move(Opts)),
        Strategy(std::move(Strategy)) {}
  BatchJob(std::string Name, std::shared_ptr<const KernelSession> Session,
           ExplorerOptions Opts, std::string Strategy)
      : Name(std::move(Name)), K(Session->source().name()),
        Opts(std::move(Opts)), Strategy(std::move(Strategy)),
        Session(std::move(Session)) {}
};

/// One finished job, in submission order.
struct BatchResult {
  std::string Name;
  ExplorationResult Result;
};

/// Batch-level configuration.
struct BatchOptions {
  /// Concurrent jobs. runAll() creates a pool of
  /// batchThreads(NumThreads, jobs) workers: a lone job, or NumThreads
  /// <= 1, runs on the calling thread (still sharing the cache across
  /// jobs). Each job runs single-threaded inside its worker.
  /// explore_batch defaults this to availableCores(); the daemon to
  /// ServeOptions::NumThreads.
  unsigned NumThreads = 1;
  /// Pool to run a multi-job batch on, in place of the one runAll()
  /// would create (NumThreads is then ignored). A lone job never uses
  /// it: it runs inline, saving the handoff to a worker.
  std::shared_ptr<ThreadPool> Pool;
  /// Estimate cache shared by every job; created when unset. Exposed so
  /// callers can carry warm state across batches.
  std::shared_ptr<EstimateCache> Cache;
  /// Trace recorder shared by every job (each job's events land on a
  /// track named after the job). Jobs that set their own recorder keep
  /// it. Unset: jobs fall back to TraceRecorder::global().
  std::shared_ptr<TraceRecorder> Trace;
  /// Crash-safety journal. When set, the batch registers it as the
  /// shared cache's completion observer — every finished estimation is
  /// durable (write-then-rename) the moment it lands — and records a
  /// winner summary after each job. To resume an interrupted run, load
  /// the journal, adopt() it into a fresh journal, and replayInto() the
  /// shared cache before runAll(); finished jobs then re-derive their
  /// winners from the warmed cache with zero backend calls, and the
  /// batch verifies each against its journaled record (a note lands in
  /// the result's trace either way).
  std::shared_ptr<EvaluationJournal> Journal;
  /// Per-backend circuit breakers shared by every job that does not
  /// bring its own (see ExplorerOptions::Breakers). Unset: no breakers.
  std::shared_ptr<CircuitBreakerRegistry> Breakers;
};

/// Collects jobs, runs them concurrently, returns ordered results.
class BatchExplorer {
public:
  explicit BatchExplorer(BatchOptions Opts = {});

  /// Queues one job. Convenience overloads label it with the kernel name
  /// and select the search by legacy mode or by registry strategy name.
  void addJob(BatchJob Job);
  void addJob(const Kernel &K, ExplorerOptions Opts,
              BatchJob::Mode Mode = BatchJob::Mode::Guided);
  void addJob(const Kernel &K, ExplorerOptions Opts, std::string Strategy);

  unsigned numJobs() const { return Jobs.size(); }

  /// Runs every queued job and clears the queue. Results are in
  /// submission order regardless of completion order.
  std::vector<BatchResult> runAll();

  /// The shared cache (for stats reporting and cross-batch reuse).
  const std::shared_ptr<EstimateCache> &estimateCache() const {
    return Cache;
  }

  //===--------------------------------------------------------------===//
  // Live progress, for the metrics gauges: readable from any thread
  // while runAll() executes on another.
  //===--------------------------------------------------------------===//

  /// Jobs the in-progress (or most recent) runAll() call took on.
  uint64_t jobsQueued() const {
    return JobsQueued.load(std::memory_order_relaxed);
  }
  /// Jobs that have finished so far in that call.
  uint64_t jobsCompleted() const {
    return JobsDone.load(std::memory_order_relaxed);
  }

private:
  BatchOptions Opts;
  std::shared_ptr<EstimateCache> Cache; // never null
  std::vector<BatchJob> Jobs;
  std::atomic<uint64_t> JobsQueued{0};
  std::atomic<uint64_t> JobsDone{0};
};

/// Workers a batch of \p NumJobs jobs uses when asked for \p NumThreads:
/// one for a lone job, which runs inline, else min(NumThreads, NumJobs).
/// runAll() sizes the pool it creates by this rule; a caller that builds
/// its own pool for a batch sizes it the same way.
unsigned batchThreads(unsigned NumThreads, size_t NumJobs);

/// Journals \p Result's winner summary as job \p Name; when the journal
/// already held a record for \p Name (an interrupted run finished this
/// job), first verifies the re-derived winner against it and notes the
/// outcome in the result's trace. runAll() calls it per job; the daemon
/// also calls it for the requests it answers without a batch.
void journalJob(EvaluationJournal &Journal, const std::string &Name,
                ExplorationResult &Result);

/// One-shot convenience: run \p Jobs with \p Opts.
std::vector<BatchResult> exploreBatch(std::vector<BatchJob> Jobs,
                                      const BatchOptions &Opts = {});

} // namespace defacto

#endif // DEFACTO_CORE_BATCHEXPLORER_H
