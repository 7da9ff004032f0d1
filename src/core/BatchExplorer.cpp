//===- BatchExplorer.cpp --------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Core/BatchExplorer.h"

#include "defacto/Core/EvaluationJournal.h"

#include <algorithm>

using namespace defacto;

unsigned defacto::batchThreads(unsigned NumThreads, size_t NumJobs) {
  if (NumJobs <= 1)
    return 1;
  return static_cast<unsigned>(
      std::min<size_t>(std::max(1u, NumThreads), NumJobs));
}

BatchExplorer::BatchExplorer(BatchOptions Opts) : Opts(std::move(Opts)) {
  Cache = this->Opts.Cache ? this->Opts.Cache
                           : std::make_shared<EstimateCache>();
}

void BatchExplorer::addJob(BatchJob Job) { Jobs.push_back(std::move(Job)); }

void BatchExplorer::addJob(const Kernel &K, ExplorerOptions JobOpts,
                           BatchJob::Mode Mode) {
  Jobs.emplace_back(K.name(), K.clone(), std::move(JobOpts), Mode);
}

void BatchExplorer::addJob(const Kernel &K, ExplorerOptions JobOpts,
                           std::string Strategy) {
  Jobs.emplace_back(K.name(), K.clone(), std::move(JobOpts),
                    std::move(Strategy));
}

namespace {

ExplorationResult runJob(BatchJob &Job,
                         const std::shared_ptr<EstimateCache> &Cache,
                         const std::shared_ptr<TraceRecorder> &Trace,
                         const std::shared_ptr<CircuitBreakerRegistry>
                             &Breakers) {
  // A job runs on a batch worker, so it gets no pool of its own: a
  // fan-out into the batch pool could deadlock it (every worker waiting
  // on tasks no worker is free to run).
  ExplorerOptions Opts = Job.Opts;
  Opts.Pool = nullptr;
  Opts.Cache = Cache;
  if (!Opts.Trace)
    Opts.Trace = Trace;
  if (!Opts.Breakers)
    Opts.Breakers = Breakers;
  if (Opts.TraceLabel.empty())
    Opts.TraceLabel = Job.Name.empty() ? Job.K.name() : Job.Name;
  // runAll() owns the pending jobs and runs each once, so a job without
  // a session hands its kernel over instead of cloning it.
  std::shared_ptr<const KernelSession> Session =
      Job.Session ? Job.Session : KernelSession::create(std::move(Job.K));
  std::string Strategy = Job.Strategy;
  if (Strategy.empty())
    Strategy =
        Job.SearchMode == BatchJob::Mode::Exhaustive ? "exhaustive" : "guided";
  if (Expected<ExplorationResult> Res =
          exploreWithStrategy(Session, Opts, Strategy))
    return Res.takeValue();
  // Unknown strategy: degrade to guided rather than abort the batch.
  ExplorationResult Fallback =
      exploreWithStrategy(std::move(Session), Opts, "guided").takeValue();
  Fallback.Trace = "unknown strategy '" + Job.Strategy +
                   "'; fell back to guided\n" + Fallback.Trace;
  return Fallback;
}

} // namespace

void defacto::journalJob(EvaluationJournal &Journal, const std::string &Name,
                         ExplorationResult &Result) {
  JournalJobRecord Rec;
  Rec.Name = Name;
  Rec.Strategy = Result.Strategy;
  Rec.Selected = unrollVectorToString(Result.Selected);
  Rec.Cycles = Result.SelectedEstimate.Cycles;
  Rec.Slices = Result.SelectedEstimate.Slices;
  Rec.Evaluations = Result.EvaluationsUsed;
  Rec.Degraded = Result.Degraded;
  Rec.Fits = Result.SelectedFits;
  if (std::optional<JournalJobRecord> Prev = Journal.jobRecord(Name)) {
    bool Match = Prev->Selected == Rec.Selected &&
                 Prev->Cycles == Rec.Cycles && Prev->Slices == Rec.Slices &&
                 Prev->Fits == Rec.Fits;
    Result.Trace += Match ? "resume: reproduced journaled winner " +
                                Rec.Selected + "\n"
                          : "resume: journaled winner " + Prev->Selected +
                                " NOT reproduced (got " + Rec.Selected +
                                ")\n";
  }
  Journal.recordJob(Rec);
}

std::vector<BatchResult> BatchExplorer::runAll() {
  std::vector<BatchJob> Pending;
  Pending.swap(Jobs);
  JobsQueued.store(Pending.size(), std::memory_order_relaxed);
  JobsDone.store(0, std::memory_order_relaxed);

  std::vector<BatchResult> Results(Pending.size());
  for (size_t I = 0; I != Pending.size(); ++I)
    Results[I].Name = Pending[I].Name.empty() ? Pending[I].K.name()
                                              : Pending[I].Name;

  // Journal hookup: every estimation fulfilled into the shared cache is
  // recorded (and flushed) the moment it completes, from whichever
  // thread computed it. Replayed (seeded) entries never re-fulfill, so a
  // resumed run re-records nothing.
  if (Opts.Journal)
    Cache->setObserver(
        [Journal = Opts.Journal](const std::string &Key,
                                 const EstimateCache::Result &R) {
          Journal->recordEvaluation(Key, R);
        });

  auto Run = [this, &Pending, &Results](size_t I) {
    Results[I].Result = runJob(Pending[I], Cache, Opts.Trace, Opts.Breakers);
    if (Opts.Journal)
      journalJob(*Opts.Journal, Results[I].Name, Results[I].Result);
    JobsDone.fetch_add(1, std::memory_order_relaxed);
  };

  // A lone job runs inline even when a pool is supplied: handing it over
  // would only add a thread handoff (two wakeups) to its latency, and a
  // pool created for it would only add the cost of spawning workers.
  std::shared_ptr<ThreadPool> Pool;
  if (Pending.size() > 1) {
    if (Opts.Pool)
      Pool = Opts.Pool;
    else if (unsigned N = batchThreads(Opts.NumThreads, Pending.size()); N > 1)
      Pool = std::make_shared<ThreadPool>(N);
  }
  if (!Pool) {
    for (size_t I = 0; I != Pending.size(); ++I)
      Run(I);
  } else {
    std::vector<std::future<void>> Done;
    Done.reserve(Pending.size());
    for (size_t I = 0; I != Pending.size(); ++I)
      Done.push_back(Pool->submit([&Run, I] { Run(I); }));
    for (std::future<void> &F : Done)
      F.wait();
  }
  if (Opts.Journal)
    Cache->setObserver({});
  return Results;
}

std::vector<BatchResult> defacto::exploreBatch(std::vector<BatchJob> Jobs,
                                               const BatchOptions &Opts) {
  BatchExplorer Batch(Opts);
  for (BatchJob &Job : Jobs)
    Batch.addJob(std::move(Job));
  return Batch.runAll();
}
