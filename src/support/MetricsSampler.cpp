//===- MetricsSampler.cpp -------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Support/MetricsSampler.h"

#include "defacto/Support/Histogram.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/OpenMetrics.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace defacto;

static double realSeconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A JSON-safe number: finite values through %.10g, non-finite clamped
/// to 0 (JSON has no Inf/NaN literals).
static std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

MetricsSampler::MetricsSampler(MetricsSamplerOptions O) : Opts(std::move(O)) {
  if (!Opts.Clock)
    Opts.Clock = realSeconds;
  if (Opts.IntervalSeconds <= 0)
    Opts.IntervalSeconds = 1.0;
  StartTime = Opts.Clock();
}

MetricsSampler::~MetricsSampler() {
  // Stop the thread without emitting a surprise final sample: drivers
  // that want the final snapshot call stop() themselves.
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Running)
      return;
    StopRequested = true;
  }
  CV.notify_all();
  Worker.join();
}

void MetricsSampler::setGauge(const std::string &Name,
                              std::function<double()> Fn) {
  std::lock_guard<std::mutex> Lock(M);
  Gauges[Name] = std::move(Fn);
}

uint64_t MetricsSampler::samples() const {
  std::lock_guard<std::mutex> Lock(M);
  return Seq;
}

Status MetricsSampler::ioStatus() const {
  std::lock_guard<std::mutex> Lock(M);
  return IoStatus;
}

void MetricsSampler::start() {
  std::lock_guard<std::mutex> Lock(M);
  if (Running)
    return;
  Running = true;
  StopRequested = false;
  Worker = std::thread([this] { threadMain(); });
}

void MetricsSampler::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    StopRequested = true;
  }
  CV.notify_all();
  if (Worker.joinable())
    Worker.join();
  {
    std::lock_guard<std::mutex> Lock(M);
    Running = false;
  }
  sampleOnce(/*Final=*/true);
}

void MetricsSampler::threadMain() {
  std::unique_lock<std::mutex> Lock(M);
  while (!StopRequested) {
    CV.wait_for(Lock,
                std::chrono::duration<double>(Opts.IntervalSeconds),
                [this] { return StopRequested; });
    if (StopRequested)
      break;
    if (Opts.Cancel.valid() && Opts.Cancel.cancelled())
      break;
    sampleLocked(/*Final=*/false);
  }
}

MetricsSample MetricsSampler::sampleOnce(bool Final) {
  std::lock_guard<std::mutex> Lock(M);
  return sampleLocked(Final);
}

MetricsSample MetricsSampler::sampleLocked(bool Final) {
  MetricsSample S;
  S.Seq = ++Seq;
  S.Time = Opts.Clock();
  S.Final = Final;

  // Snapshot every surface once; the JSONL embeds the registries' own
  // toJson() documents, so the final line agrees byte-for-byte with the
  // end-of-run --stats output.
  std::string CountersJson = StatRegistry::instance().toJson();
  std::string HistsJson = HistogramRegistry::global().toJson();
  std::vector<StatSnapshot> Counters = StatRegistry::instance().snapshot();
  std::vector<HistogramSnapshot> Hists = HistogramRegistry::global().snapshot();

  auto counterValue = [&](const std::string &Group, const std::string &Name) {
    for (const StatSnapshot &C : Counters)
      if (C.Group == Group && C.Name == Name)
        return C.Value;
    return uint64_t{0};
  };

  std::map<std::string, double> GaugeValues;
  for (const auto &[Name, Fn] : Gauges) {
    double V = Fn ? Fn() : 0;
    GaugeValues[Name] = std::isfinite(V) ? V : 0;
  }

  // Derived window rates.
  double Dt = S.Time - (HavePrev ? PrevTime : StartTime);
  uint64_t EvalCount = 0;
  for (const HistogramSnapshot &H : Hists)
    if (H.Name == "eval.latency_us")
      EvalCount = H.Count;
  uint64_t Lookups = counterValue("cache", "lookups");
  uint64_t Served = counterValue("cache", "hits") +
                    counterValue("cache", "negative_hits") +
                    counterValue("cache", "waits");
  if (Dt > 0)
    S.EvalsPerSec =
        static_cast<double>(EvalCount - PrevEvalCount) / Dt;
  if (Lookups > PrevCacheLookups)
    S.CacheHitRate = static_cast<double>(Served - PrevCacheServed) /
                     static_cast<double>(Lookups - PrevCacheLookups);
  auto TotalIt = GaugeValues.find("jobs_total");
  auto DoneIt = GaugeValues.find("jobs_done");
  if (TotalIt != GaugeValues.end() && DoneIt != GaugeValues.end()) {
    double Elapsed = S.Time - StartTime;
    double Total = TotalIt->second, Done = DoneIt->second;
    if (Done > 0 && Elapsed > 0 && Total >= Done) {
      double Rate = Done / Elapsed;
      S.EtaSeconds = Rate > 0 ? (Total - Done) / Rate : -1;
    }
  }
  HavePrev = true;
  PrevTime = S.Time;
  PrevEvalCount = EvalCount;
  PrevCacheLookups = Lookups;
  PrevCacheServed = Served;

  // JSONL line.
  {
    std::ostringstream OS;
    OS << "{\"version\": 2, \"seq\": " << S.Seq
       << ", \"t\": " << jsonNumber(S.Time)
       << ", \"final\": " << (Final ? "true" : "false")
       << ", \"counters\": " << CountersJson
       << ", \"histograms\": " << HistsJson << ", \"gauges\": {";
    bool First = true;
    for (const auto &[Name, V] : GaugeValues) {
      if (!First)
        OS << ", ";
      First = false;
      OS << jsonQuote(Name) << ": " << jsonNumber(V);
    }
    OS << "}, \"derived\": {\"evals_per_sec\": " << jsonNumber(S.EvalsPerSec);
    if (S.CacheHitRate >= 0)
      OS << ", \"cache_hit_rate\": " << jsonNumber(S.CacheHitRate);
    if (S.EtaSeconds >= 0)
      OS << ", \"eta_seconds\": " << jsonNumber(S.EtaSeconds);
    OS << "}}";
    S.JsonLine = OS.str();
  }

  // OpenMetrics exposition of this snapshot.
  {
    OpenMetricsWriter W;
    for (const StatSnapshot &C : Counters) {
      std::string Family = openMetricsName("defacto_" + C.Group + "_" + C.Name);
      W.family(Family, "counter", C.Description);
      W.sample(Family + "_total", static_cast<double>(C.Value));
    }
    for (const HistogramSnapshot &H : Hists) {
      std::string Family = openMetricsName("defacto_" + H.Name);
      W.family(Family, "summary");
      for (double Q : {0.5, 0.9, 0.99})
        W.sample(Family, static_cast<double>(H.quantile(Q)),
                 {{"quantile", jsonNumber(Q)}});
      W.sample(Family + "_sum", static_cast<double>(H.Sum));
      W.sample(Family + "_count", static_cast<double>(H.Count));
      W.family(Family + "_max", "gauge");
      W.sample(Family + "_max", static_cast<double>(H.Max));
    }
    for (const auto &[Name, V] : GaugeValues) {
      std::string Family = openMetricsName("defacto_" + Name);
      W.family(Family, "gauge");
      W.sample(Family, V);
    }
    W.family("defacto_evals_per_sec", "gauge",
             "window evaluation throughput");
    W.sample("defacto_evals_per_sec", S.EvalsPerSec);
    if (S.CacheHitRate >= 0) {
      W.family("defacto_cache_hit_rate", "gauge",
               "window estimate-cache hit rate");
      W.sample("defacto_cache_hit_rate", S.CacheHitRate);
    }
    if (S.EtaSeconds >= 0) {
      W.family("defacto_eta_seconds", "gauge",
               "projected seconds to completion");
      W.sample("defacto_eta_seconds", S.EtaSeconds);
    }
    S.Prom = W.finish();
  }

  Lines.push_back(S.JsonLine);
  LatestProm = S.Prom;
  flushLocked();
  return S;
}

void MetricsSampler::flushLocked() {
  auto writeAtomically = [&](const std::string &Path,
                             const std::string &Contents) {
    if (Path.empty())
      return;
    std::string Tmp = Path + ".tmp";
    std::FILE *F = std::fopen(Tmp.c_str(), "w");
    if (!F) {
      if (IoStatus.isOk())
        IoStatus = Status::error(ErrorCode::Internal,
                                 "metrics: cannot open " + Tmp);
      return;
    }
    bool Ok = std::fwrite(Contents.data(), 1, Contents.size(), F) ==
              Contents.size();
    Ok = std::fclose(F) == 0 && Ok;
    if (Ok && std::rename(Tmp.c_str(), Path.c_str()) != 0)
      Ok = false;
    if (!Ok && IoStatus.isOk())
      IoStatus =
          Status::error(ErrorCode::Internal, "metrics: cannot write " + Path);
  };

  if (!Opts.JsonlPath.empty()) {
    std::string All;
    for (const std::string &L : Lines) {
      All += L;
      All += '\n';
    }
    writeAtomically(Opts.JsonlPath, All);
  }
  writeAtomically(Opts.PromPath, LatestProm);
}
