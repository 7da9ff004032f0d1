//===- defacto_monitor.cpp - Live exploration dashboard -------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Tails the metrics JSONL stream a MetricsSampler writes (explore_batch
/// or defacto_served --metrics-jsonl=PATH) and renders a live terminal dashboard: batch
/// progress with an ETA, evaluation throughput, cache behaviour, breaker
/// state, and the latency percentile table. The sampler rewrites the
/// file atomically (write-then-rename), so re-reading the whole file on
/// every poll never observes a torn line.
///
///   defacto_monitor METRICS.jsonl [--interval-ms=N] [--max-wait-ms=N]
///                   [--once] [--no-clear]
///
///   --interval-ms=N   poll period (default 500)
///   --max-wait-ms=N   give up when no sample appears for N ms (default
///                     0: wait forever)
///   --once            render the latest sample and exit
///   --no-clear        append frames instead of clearing the terminal
///                     (for logs / non-TTY output)
///
/// Exits 0 after rendering a sample marked "final": true (or any sample
/// with --once), 1 when the wait budget expires without one, 2 on usage
/// errors.
///
//===----------------------------------------------------------------------===//

#include "defacto/Support/CommandLine.h"
#include "defacto/Support/Histogram.h"
#include "defacto/Support/Json.h"
#include "defacto/Support/Table.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace defacto;

namespace {

/// The last non-blank line of \p Path, or nullopt when the file is
/// missing or has no content yet.
std::optional<std::string> lastNonEmptyLine(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::string Line, Last;
  while (std::getline(In, Line))
    if (Line.find_first_not_of(" \t\r") != std::string::npos)
      Last = Line;
  if (Last.empty())
    return std::nullopt;
  return Last;
}

std::string progressBar(double Fraction, unsigned Width) {
  Fraction = std::clamp(Fraction, 0.0, 1.0);
  unsigned Filled = static_cast<unsigned>(std::lround(Fraction * Width));
  std::string Bar(Filled, '#');
  Bar.append(Width - Filled, '.');
  return "[" + Bar + "]";
}

std::string formatSeconds(double S) {
  if (S < 0)
    return "-";
  if (S < 60)
    return formatDouble(S, 1) + "s";
  unsigned Minutes = static_cast<unsigned>(S) / 60;
  unsigned Rest = static_cast<unsigned>(S) % 60;
  return std::to_string(Minutes) + "m " + std::to_string(Rest) + "s";
}

/// Renders one dashboard frame from a parsed sampler line.
std::string renderFrame(const JsonValue &Sample, const std::string &Path) {
  std::ostringstream OS;
  bool Final = Sample.boolean("final");
  OS << "defacto monitor — " << Path << "  (sample #" << Sample.uint("seq")
     << (Final ? ", FINAL)" : ")") << "\n\n";

  const JsonValue *Gauges = Sample.find("gauges");
  const JsonValue *Derived = Sample.find("derived");

  // Batch progress.
  if (Gauges && Gauges->find("jobs_total")) {
    double Total = Gauges->num("jobs_total");
    double Done = Gauges->num("jobs_done");
    double Fraction = Total > 0 ? Done / Total : 0;
    OS << "  jobs      " << progressBar(Fraction, 32) << "  "
       << formatDouble(Done, 0) << "/" << formatDouble(Total, 0);
    if (Derived && Derived->find("eta_seconds"))
      OS << "  eta " << formatSeconds(Derived->num("eta_seconds", -1));
    OS << "\n";
  }

  // Throughput and engine load.
  if (Derived) {
    OS << "  evals/sec " << formatDouble(Derived->num("evals_per_sec"), 1);
    if (Derived->find("cache_hit_rate"))
      OS << "   cache hit rate "
         << formatDouble(100 * Derived->num("cache_hit_rate"), 1) << "%";
    OS << "\n";
  }
  if (Gauges) {
    OS << "  in-flight " << formatDouble(Gauges->num("in_flight_evals"), 0)
       << "   queue depth " << formatDouble(Gauges->num("queue_depth"), 0)
       << "   cached designs "
       << formatWithCommas(
              static_cast<int64_t>(Gauges->num("cache_designs")))
       << "   breakers open "
       << formatDouble(Gauges->num("breakers_open"), 0) << "\n";
  }
  OS << "\n";

  // Latency percentile table from the histogram registry export.
  if (const JsonValue *Hists = Sample.find("histograms");
      Hists && Hists->isObject() && !Hists->Members.empty()) {
    Table Latency({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto &[Name, H] : Hists->Members)
      Latency.addRow({Name,
                      formatWithCommas(static_cast<int64_t>(H.num("count"))),
                      formatDouble(H.num("mean"), 1),
                      formatWithCommas(static_cast<int64_t>(H.num("p50"))),
                      formatWithCommas(static_cast<int64_t>(H.num("p90"))),
                      formatWithCommas(static_cast<int64_t>(H.num("p99"))),
                      formatWithCommas(static_cast<int64_t>(H.num("max")))});
    OS << Latency.toString(2) << "\n";
  }

  // The heaviest phases, by cumulative wall time: the phase spans'
  // "<phase>_us" histograms, sorted by sum.
  if (const JsonValue *Hists = Sample.find("histograms");
      Hists && Hists->isObject()) {
    std::vector<std::pair<std::string, const JsonValue *>> Phases;
    for (const auto &[Name, H] : Hists->Members)
      if (std::string Phase = spanPhase(Name); !Phase.empty())
        Phases.emplace_back(Phase, &H);
    std::sort(Phases.begin(), Phases.end(), [](const auto &A, const auto &B) {
      return A.second->num("sum") > B.second->num("sum");
    });
    if (Phases.size() > 8)
      Phases.resize(8);
    Table Top({"phase", "wall_ms", "count"});
    for (const auto &[Name, H] : Phases)
      Top.addRow({Name, formatDouble(H->num("sum") / 1e3, 2),
                  formatWithCommas(static_cast<int64_t>(H->num("count")))});
    if (!Phases.empty())
      OS << Top.toString(2) << "\n";
  }
  return OS.str();
}

} // namespace

int main(int argc, char **argv) {
  cl::ArgList Args(argc, argv);
  bool Once = Args.consumeFlag("--once");
  bool NoClear = Args.consumeFlag("--no-clear");
  unsigned IntervalMs = Args.consumeUnsigned("--interval-ms").value_or(500);
  unsigned MaxWaitMs = Args.consumeUnsigned("--max-wait-ms").value_or(0);
  if (Args.rest().size() != 1) {
    std::fprintf(stderr,
                 "usage: defacto_monitor METRICS.jsonl [--interval-ms=N] "
                 "[--max-wait-ms=N] [--once] [--no-clear]\n");
    return 2;
  }
  const std::string Path = Args.rest().front();
  if (IntervalMs == 0)
    IntervalMs = 1;

  uint64_t LastSeq = 0;
  bool RenderedAny = false;
  auto WaitStart = std::chrono::steady_clock::now();
  for (;;) {
    std::optional<std::string> Line = lastNonEmptyLine(Path);
    if (Line) {
      Expected<JsonValue> Sample = parseJson(*Line);
      if (Sample) {
        uint64_t Seq = Sample->uint("seq");
        if (!RenderedAny || Seq != LastSeq) {
          std::string Frame = renderFrame(*Sample, Path);
          if (!NoClear)
            std::fputs("\x1b[2J\x1b[H", stdout);
          std::fputs(Frame.c_str(), stdout);
          std::fflush(stdout);
          RenderedAny = true;
          LastSeq = Seq;
          WaitStart = std::chrono::steady_clock::now();
        }
        if (Once || Sample->boolean("final"))
          return 0;
      }
      // A parse failure here means we caught a foreign or truncated
      // file; keep polling — the next atomic rewrite supersedes it.
    }
    if (MaxWaitMs > 0) {
      auto Waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - WaitStart)
                        .count();
      if (Waited >= static_cast<long long>(MaxWaitMs)) {
        std::fprintf(stderr,
                     "defacto_monitor: no %s sample in %s within %u ms\n",
                     RenderedAny ? "new" : "parsable", Path.c_str(),
                     MaxWaitMs);
        return RenderedAny ? 0 : 1;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
}
