//===- Protocol.h - The DSE daemon wire protocol ---------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol between defacto_served and its
/// clients (docs/SERVING.md documents it for humans). One request per
/// line, one reply per line, replies in request order per connection.
///
/// Three commands:
///  - "explore": the real work — run one design-space exploration and
///    return the winner. Identified by a kernel (named benchmark kernel
///    or inline C source), a platform, a strategy, an optional pass
///    pipeline, an evaluation budget, and an optional deadline.
///  - "ping": liveness + warm-state probe (cache sizes, request
///    counters, journal-resume count). Never queued.
///  - "shutdown": ask the daemon to finish in-flight work and exit.
///
/// Reply statuses mirror the driver exit-code taxonomy: "ok" healthy,
/// "degraded" completed under faults/deadline/budget, "overloaded" the
/// admission queue was full (the 429 analogue — retry later),
/// "deadline" the request's deadline expired before evaluation began,
/// "error" the request itself was invalid (unknown kernel/platform/
/// strategy/pipeline, unparsable source or JSON).
///
/// Doubles that feed bit-identity checks (slices) travel as hexfloat
/// strings, the journal's exact-round-trip convention.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SERVE_PROTOCOL_H
#define DEFACTO_SERVE_PROTOCOL_H

#include "defacto/Support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace defacto {

/// One client request, one JSONL line on the wire.
struct ServeRequest {
  /// Echoed verbatim in the reply so pipelined clients can correlate.
  std::string Id;
  /// "explore" (default), "ping", or "shutdown".
  std::string Cmd = "explore";
  /// Named benchmark kernel (paper or extended set)...
  std::string Kernel;
  /// ...or inline C source, parsed by the frontend. When both are set,
  /// Source wins and Kernel names it.
  std::string Source;
  std::string Platform = "wildstar-pipelined";
  std::string Strategy = "guided";
  /// Pass-pipeline text ("normalize,unroll,..."); empty = default.
  std::string Pipeline;
  /// Evaluation budget (ExplorerOptions::MaxEvaluations).
  unsigned Budget = 100;
  /// Seconds from admission until the request expires; 0 = no deadline.
  double DeadlineSeconds = 0;
  /// Request the deterministic decision digest (hash) in the reply —
  /// clients use it to prove a served result bit-identical to a
  /// standalone run.
  bool WantDigest = false;

  std::string toJson() const;
};

/// Parses one request line. Unknown fields are ignored (forward
/// compatibility); a missing/unknown "cmd" or non-object line is an
/// error the server answers with an "error" reply.
Expected<ServeRequest> parseServeRequest(const std::string &Line);

/// Reply status taxonomy; see file comment.
enum class ServeStatus {
  Ok,
  Degraded,
  Overloaded,
  Deadline,
  Error,
  Pong, ///< Reply to "ping".
  Bye,  ///< Reply to "shutdown".
};

const char *serveStatusName(ServeStatus S);

/// One daemon reply, one JSONL line on the wire.
struct ServeResponse {
  std::string Id;
  ServeStatus RStatus = ServeStatus::Error;
  /// Human-readable reason for Error/Overloaded/Deadline replies.
  std::string Reason;

  // Explore results.
  std::string Kernel;
  std::string Strategy;
  std::string Platform;
  /// The winning design (DesignPoint::toString form).
  std::string Selected;
  uint64_t Cycles = 0;
  double Slices = 0;
  double Speedup = 0;
  unsigned Evaluations = 0;
  bool Fits = true;
  bool Degraded = false;

  /// True when this request consumed only warm cache state (no new
  /// backend computation) — the repeat-query fast path. Attribution is
  /// per request: CacheMisses == 0, whatever its batch neighbours did
  /// (see docs/SERVING.md).
  bool Warm = false;
  /// This request's own estimate-cache lookups that found a completed
  /// entry (hits) or did not (misses: computed or waited for).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Batch sequence number and how many requests it coalesced.
  uint64_t BatchSeq = 0;
  unsigned BatchSize = 0;
  /// Admission-to-reply latency, daemon-side.
  double LatencyUs = 0;
  /// FNV-1a hash over the deterministic decision-digest lines, hex;
  /// present when the request set WantDigest.
  std::string Digest;

  // Ping extras.
  uint64_t CacheDesigns = 0;
  uint64_t SessionEntries = 0;
  uint64_t Requests = 0;
  unsigned ResumedEvaluations = 0;

  std::string toJson() const;
};

/// Parses one reply line (the client and the tests).
Expected<ServeResponse> parseServeResponse(const std::string &Line);

/// FNV-1a 64-bit hash over \p Lines (each terminated with '\n'), as a
/// fixed-width hex string. The digest the daemon returns for
/// WantDigest requests; tests hash TraceRecorder::decisionDigest() with
/// the same function to prove bit-identity.
std::string digestHash(const std::vector<std::string> &Lines);

} // namespace defacto

#endif // DEFACTO_SERVE_PROTOCOL_H
