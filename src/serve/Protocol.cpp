//===- Protocol.cpp -------------------------------------------------------===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "defacto/Serve/Protocol.h"

#include "defacto/Support/Json.h"

#include <cstdio>
#include <sstream>

using namespace defacto;

namespace {

/// Hexfloat encoding for exact double round-trips, the journal's idiom.
std::string hexDouble(double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", D);
  return Buf;
}

std::string plainDouble(double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", D);
  return Buf;
}

} // namespace

std::string ServeRequest::toJson() const {
  std::ostringstream OS;
  OS << "{\"cmd\":" << jsonQuote(Cmd);
  if (!Id.empty())
    OS << ",\"id\":" << jsonQuote(Id);
  if (!Kernel.empty())
    OS << ",\"kernel\":" << jsonQuote(Kernel);
  if (!Source.empty())
    OS << ",\"source\":" << jsonQuote(Source);
  OS << ",\"platform\":" << jsonQuote(Platform)
     << ",\"strategy\":" << jsonQuote(Strategy);
  if (!Pipeline.empty())
    OS << ",\"pipeline\":" << jsonQuote(Pipeline);
  OS << ",\"budget\":" << Budget
     << ",\"deadline_s\":" << jsonQuote(plainDouble(DeadlineSeconds));
  if (WantDigest)
    OS << ",\"digest\":true";
  OS << '}';
  return OS.str();
}

Expected<ServeRequest> defacto::parseServeRequest(const std::string &Line) {
  Expected<JsonValue> Parsed = parseJson(Line);
  if (!Parsed)
    return Status::error(ErrorCode::InvalidInput,
                         "request is not valid JSON: " +
                             Parsed.status().message());
  const JsonValue &V = Parsed.value();
  if (!V.isObject())
    return Status::error(ErrorCode::InvalidInput,
                         "request must be a JSON object");
  ServeRequest R;
  R.Cmd = V.str("cmd", "explore");
  if (R.Cmd != "explore" && R.Cmd != "ping" && R.Cmd != "shutdown")
    return Status::error(ErrorCode::InvalidInput,
                         "unknown cmd '" + R.Cmd + "'");
  R.Id = V.str("id");
  R.Kernel = V.str("kernel");
  R.Source = V.str("source");
  R.Platform = V.str("platform", R.Platform);
  R.Strategy = V.str("strategy", R.Strategy);
  R.Pipeline = V.str("pipeline");
  R.Budget = static_cast<unsigned>(V.uint("budget", R.Budget));
  R.DeadlineSeconds = V.num("deadline_s", 0);
  R.WantDigest = V.boolean("digest");
  if (R.Cmd == "explore" && R.Kernel.empty() && R.Source.empty())
    return Status::error(ErrorCode::InvalidInput,
                         "explore needs \"kernel\" or \"source\"");
  if (R.DeadlineSeconds < 0)
    return Status::error(ErrorCode::InvalidInput,
                         "deadline_s must be non-negative");
  return R;
}

const char *defacto::serveStatusName(ServeStatus S) {
  switch (S) {
  case ServeStatus::Ok:
    return "ok";
  case ServeStatus::Degraded:
    return "degraded";
  case ServeStatus::Overloaded:
    return "overloaded";
  case ServeStatus::Deadline:
    return "deadline";
  case ServeStatus::Error:
    return "error";
  case ServeStatus::Pong:
    return "pong";
  case ServeStatus::Bye:
    return "bye";
  }
  return "error";
}

namespace {

Expected<ServeStatus> statusFromName(const std::string &Name) {
  for (ServeStatus S :
       {ServeStatus::Ok, ServeStatus::Degraded, ServeStatus::Overloaded,
        ServeStatus::Deadline, ServeStatus::Error, ServeStatus::Pong,
        ServeStatus::Bye})
    if (Name == serveStatusName(S))
      return S;
  return Status::error(ErrorCode::InvalidInput,
                       "unknown reply status '" + Name + "'");
}

} // namespace

std::string ServeResponse::toJson() const {
  std::ostringstream OS;
  OS << "{\"status\":" << jsonQuote(serveStatusName(RStatus));
  if (!Id.empty())
    OS << ",\"id\":" << jsonQuote(Id);
  if (!Reason.empty())
    OS << ",\"reason\":" << jsonQuote(Reason);
  if (RStatus == ServeStatus::Ok || RStatus == ServeStatus::Degraded) {
    OS << ",\"kernel\":" << jsonQuote(Kernel)
       << ",\"strategy\":" << jsonQuote(Strategy)
       << ",\"platform\":" << jsonQuote(Platform)
       << ",\"selected\":" << jsonQuote(Selected) << ",\"cycles\":" << Cycles
       << ",\"slices\":" << jsonQuote(hexDouble(Slices))
       << ",\"speedup\":" << jsonQuote(plainDouble(Speedup))
       << ",\"evals\":" << Evaluations
       << ",\"fits\":" << (Fits ? "true" : "false")
       << ",\"degraded\":" << (Degraded ? "true" : "false")
       << ",\"warm\":" << (Warm ? "true" : "false")
       << ",\"cache_hits\":" << CacheHits
       << ",\"cache_misses\":" << CacheMisses << ",\"batch\":" << BatchSeq
       << ",\"batch_size\":" << BatchSize;
    if (!Digest.empty())
      OS << ",\"decision_digest\":" << jsonQuote(Digest);
  }
  if (RStatus == ServeStatus::Pong)
    OS << ",\"cache_designs\":" << CacheDesigns
       << ",\"session_entries\":" << SessionEntries
       << ",\"requests\":" << Requests
       << ",\"resumed_evals\":" << ResumedEvaluations;
  if (RStatus != ServeStatus::Pong && RStatus != ServeStatus::Bye)
    OS << ",\"latency_us\":" << jsonQuote(plainDouble(LatencyUs));
  OS << '}';
  return OS.str();
}

Expected<ServeResponse> defacto::parseServeResponse(const std::string &Line) {
  Expected<JsonValue> Parsed = parseJson(Line);
  if (!Parsed)
    return Status::error(ErrorCode::InvalidInput,
                         "reply is not valid JSON: " +
                             Parsed.status().message());
  const JsonValue &V = Parsed.value();
  if (!V.isObject())
    return Status::error(ErrorCode::InvalidInput,
                         "reply must be a JSON object");
  Expected<ServeStatus> S = statusFromName(V.str("status"));
  if (!S)
    return S.status();
  ServeResponse R;
  R.RStatus = S.value();
  R.Id = V.str("id");
  R.Reason = V.str("reason");
  R.Kernel = V.str("kernel");
  R.Strategy = V.str("strategy");
  R.Platform = V.str("platform");
  R.Selected = V.str("selected");
  R.Cycles = V.uint("cycles");
  R.Slices = V.num("slices");
  R.Speedup = V.num("speedup");
  R.Evaluations = static_cast<unsigned>(V.uint("evals"));
  R.Fits = V.boolean("fits", true);
  R.Degraded = V.boolean("degraded");
  R.Warm = V.boolean("warm");
  R.CacheHits = V.uint("cache_hits");
  R.CacheMisses = V.uint("cache_misses");
  R.BatchSeq = V.uint("batch");
  R.BatchSize = static_cast<unsigned>(V.uint("batch_size"));
  R.LatencyUs = V.num("latency_us");
  R.Digest = V.str("decision_digest");
  R.CacheDesigns = V.uint("cache_designs");
  R.SessionEntries = V.uint("session_entries");
  R.Requests = V.uint("requests");
  R.ResumedEvaluations = static_cast<unsigned>(V.uint("resumed_evals"));
  return R;
}

std::string defacto::digestHash(const std::vector<std::string> &Lines) {
  uint64_t H = 1469598103934665603ull; // FNV-1a offset basis
  auto Mix = [&H](const char *Data, size_t N) {
    for (size_t I = 0; I != N; ++I) {
      H ^= static_cast<unsigned char>(Data[I]);
      H *= 1099511628211ull;
    }
  };
  for (const std::string &L : Lines) {
    Mix(L.data(), L.size());
    Mix("\n", 1);
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}
