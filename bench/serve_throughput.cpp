//===- serve_throughput.cpp - DSE daemon serving benchmarks ---------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measures exploration-as-a-service (Serve/Server.h) end to end over a
/// real Unix-domain socket: an in-process DseServer, client threads
/// speaking the docs/SERVING.md protocol, and two phases per kernel mix:
///
///   cold   first-ever requests — every exploration pays the estimator,
///          so latency is dominated by evaluation;
///   warm   the identical requests again — served from the
///          process-lifetime EstimateCache and kernel-session store, so
///          latency is the cache walk plus protocol overhead.
///
/// The run is also a correctness gate: every cold reply must report
/// warm=false with cache misses (warmth is attributed per request, so a
/// first-contact request can never look warm), and every warm reply must
/// report warm=true with zero cache misses and return the bit-identical
/// winner and decision digest of its cold counterpart. The process exits
/// nonzero only on such a violation — never on a slow machine — so CI
/// can run it as a smoke test (--quick caps the repetitions).
///
/// Writes BENCH_serve.json (override with --json=PATH): cold/warm
/// latency percentiles (client-observed, microseconds), warm-phase
/// requests/sec, and the warm-over-cold p50 speedup.
///
//===----------------------------------------------------------------------===//

#include "defacto/Serve/Server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace defacto;

namespace {

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Reply {
  ServeResponse R;
  double ClientUs = 0; // client-observed round-trip
};

/// Issues \p Req once over a fresh connection and times the round trip.
Reply issue(const std::string &Socket, const ServeRequest &Req) {
  Reply Out;
  Expected<UnixConnection> Conn = UnixConnection::connectTo(Socket);
  if (!Conn) {
    std::fprintf(stderr, "serve_throughput: connect: %s\n",
                 Conn.status().message().c_str());
    std::exit(1);
  }
  double Start = nowUs();
  if (!Conn->sendLine(Req.toJson()).isOk())
    std::exit(1);
  Expected<std::optional<std::string>> Line = Conn->recvLine();
  if (!Line || !Line.value()) {
    std::fprintf(stderr, "serve_throughput: connection closed\n");
    std::exit(1);
  }
  Out.ClientUs = nowUs() - Start;
  Expected<ServeResponse> R = parseServeResponse(*Line.value());
  if (!R) {
    std::fprintf(stderr, "serve_throughput: bad reply: %s\n",
                 R.status().message().c_str());
    std::exit(1);
  }
  Out.R = *R;
  return Out;
}

struct Percentiles {
  size_t Count = 0;
  double P50 = 0, P95 = 0, Max = 0;
};

Percentiles percentiles(std::vector<double> V) {
  Percentiles P;
  if (V.empty())
    return P;
  std::sort(V.begin(), V.end());
  P.Count = V.size();
  P.P50 = V[V.size() / 2];
  P.P95 = V[std::min(V.size() - 1, (V.size() * 95) / 100)];
  P.Max = V.back();
  return P;
}

std::string percentilesJson(const Percentiles &P) {
  std::ostringstream OS;
  OS << "{\"count\": " << P.Count << ", \"p50_us\": " << P.P50
     << ", \"p95_us\": " << P.P95 << ", \"max_us\": " << P.Max << "}";
  return OS.str();
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath = "BENCH_serve.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0) {
      Quick = true;
    } else if (std::strncmp(argv[I], "--json=", 7) == 0) {
      JsonPath = argv[I] + 7;
    } else {
      std::fprintf(stderr, "usage: serve_throughput [--quick] [--json=PATH]\n");
      return 2;
    }
  }

  ServeOptions Opts;
  Opts.SocketPath =
      "/tmp/defacto_serve_bench_" + std::to_string(::getpid()) + ".sock";
  Opts.NumThreads = 4;
  DseServer Server(std::move(Opts));
  Status Started = Server.start();
  if (!Started.isOk()) {
    std::fprintf(stderr, "serve_throughput: start: %s\n",
                 Started.message().c_str());
    return 1;
  }
  const std::string &Socket = Server.socketPath();

  // The request mix: every paper kernel on both platforms, digest on so
  // warm replies can prove bit-identity.
  std::vector<ServeRequest> Mix;
  for (const char *Kernel : {"FIR", "MM", "PAT", "JAC", "SOBEL"})
    for (const char *Platform :
         {"wildstar-pipelined", "wildstar-nonpipelined"}) {
      ServeRequest Req;
      Req.Kernel = Kernel;
      Req.Platform = Platform;
      Req.Budget = 40;
      Req.WantDigest = true;
      Mix.push_back(std::move(Req));
    }

  // Cold phase: first contact, sequential so attribution is exact.
  std::vector<double> ColdUs;
  std::map<std::string, ServeResponse> ColdByKey;
  bool WarmViolation = false;
  for (const ServeRequest &Req : Mix) {
    Reply Out = issue(Socket, Req);
    if (Out.R.RStatus != ServeStatus::Ok &&
        Out.R.RStatus != ServeStatus::Degraded) {
      std::fprintf(stderr, "serve_throughput: cold %s/%s: %s\n",
                   Req.Kernel.c_str(), Req.Platform.c_str(),
                   Out.R.Reason.c_str());
      return 1;
    }
    if (Out.R.Warm || Out.R.CacheMisses == 0) {
      std::fprintf(stderr,
                   "serve_throughput: COLD VIOLATION %s/%s: warm=%d "
                   "misses=%llu on first contact\n",
                   Req.Kernel.c_str(), Req.Platform.c_str(), Out.R.Warm,
                   static_cast<unsigned long long>(Out.R.CacheMisses));
      WarmViolation = true;
    }
    ColdUs.push_back(Out.ClientUs);
    ColdByKey[Req.Kernel + "|" + Req.Platform] = Out.R;
  }

  // Warm phase: the same mix again, repeated; every reply must be warm
  // and bit-identical to its cold counterpart.
  const unsigned Rounds = Quick ? 2 : 20;
  std::vector<double> WarmUs;
  double WarmStart = nowUs();
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    for (const ServeRequest &Req : Mix) {
      Reply Out = issue(Socket, Req);
      WarmUs.push_back(Out.ClientUs);
      const ServeResponse &Cold = ColdByKey[Req.Kernel + "|" + Req.Platform];
      if (!Out.R.Warm || Out.R.CacheMisses != 0 ||
          Out.R.Selected != Cold.Selected || Out.R.Cycles != Cold.Cycles ||
          Out.R.Digest != Cold.Digest) {
        std::fprintf(stderr,
                     "serve_throughput: WARM VIOLATION %s/%s: warm=%d "
                     "misses=%llu selected '%s' vs '%s' digest %s vs %s\n",
                     Req.Kernel.c_str(), Req.Platform.c_str(), Out.R.Warm,
                     static_cast<unsigned long long>(Out.R.CacheMisses),
                     Out.R.Selected.c_str(), Cold.Selected.c_str(),
                     Out.R.Digest.c_str(), Cold.Digest.c_str());
        WarmViolation = true;
      }
    }
  }
  double WarmSeconds = (nowUs() - WarmStart) / 1e6;
  double RequestsPerSec =
      WarmSeconds > 0 ? static_cast<double>(WarmUs.size()) / WarmSeconds : 0;

  Server.stop();

  Percentiles Cold = percentiles(ColdUs);
  Percentiles Warm = percentiles(WarmUs);
  double SpeedupP50 = Warm.P50 > 0 ? Cold.P50 / Warm.P50 : 0;

  std::ostringstream OS;
  OS << "{\n"
     << "  \"mix\": {\"kernels\": [\"FIR\", \"MM\", \"PAT\", \"JAC\", "
        "\"SOBEL\"], \"platforms\": 2, \"budget\": 40},\n"
     << "  \"quick\": " << (Quick ? "true" : "false") << ",\n"
     << "  \"cold\": " << percentilesJson(Cold) << ",\n"
     << "  \"warm\": " << percentilesJson(Warm) << ",\n"
     << "  \"warm_rounds\": " << Rounds << ",\n"
     << "  \"requests_per_sec\": " << RequestsPerSec << ",\n"
     << "  \"warm_speedup_p50\": " << SpeedupP50 << ",\n"
     << "  \"warm_bit_identical\": " << (WarmViolation ? "false" : "true")
     << "\n}\n";
  std::ofstream Json(JsonPath);
  Json << OS.str();
  Json.close();

  std::printf("serve_throughput: cold p50 %.0fus p95 %.0fus | warm p50 "
              "%.0fus p95 %.0fus | %.0f req/s | warm/cold p50 speedup "
              "%.1fx | %s\n",
              Cold.P50, Cold.P95, Warm.P50, Warm.P95, RequestsPerSec,
              SpeedupP50, WarmViolation ? "WARM VIOLATION" : "bit-identical");
  return WarmViolation ? 1 : 0;
}
