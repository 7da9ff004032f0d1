//===- Histogram.h - Lock-free latency/value histograms --------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Log-bucketed histograms for the exploration engine's live telemetry:
/// the wall time of every instrumented phase (transform passes,
/// estimator and scheduler calls, cache waits, whole explorations) and
/// the estimate balance/cost distributions. Counters (Stats.h) answer
/// "how many"; histograms answer "how long, and how bad is the tail" —
/// the p99 evaluation stall a mean hides. A phase's count and sum are
/// its scope count and total wall time.
///
/// Like every observability primitive here, recording is gated on the
/// StatRegistry enable bit and is **zero-cost while off**: a disabled
/// record site is one relaxed atomic load and a predictable branch — no
/// clock reads, no stores. Enabled, a record is a handful of relaxed
/// atomic adds into HdrHistogram-style log-linear buckets (8 sub-buckets
/// per power of two, ~12.5% worst-case value error), so many threads
/// record into one histogram without any lock.
///
/// Idiom:
///
///   static Histogram &EvalLatency =
///       HistogramRegistry::global().histogram("eval.latency_us");
///   ...
///   EvalLatency.record(Micros);            // no-op unless recording is on
///
/// or, for scopes, the one span primitive:
///
///   void schedule(...) {
///     DEFACTO_SPAN("scheduler.schedule");  // records "scheduler.schedule_us"
///     ...
///   }
///
/// Snapshots are mergeable (bucket-wise addition), and quantiles are
/// deterministic functions of the bucket counts: two runs recording the
/// same multiset of values report identical percentiles regardless of
/// thread interleaving.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_HISTOGRAM_H
#define DEFACTO_SUPPORT_HISTOGRAM_H

#include "defacto/Support/Stats.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace defacto {

/// One histogram's state at snapshot time. Mergeable: merge() adds
/// bucket counts, so per-shard or per-run histograms combine into one
/// distribution with the same quantile math.
struct HistogramSnapshot {
  std::string Name;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;
  std::vector<uint64_t> Buckets; // Histogram::NumBuckets entries

  /// The \p Q quantile (0 < Q <= 1) of the recorded distribution: the
  /// inclusive upper bound of the bucket holding the ceil(Q*Count)-th
  /// smallest value, clamped to the exact recorded maximum. 0 for an
  /// empty histogram. Deterministic given the bucket counts.
  uint64_t quantile(double Q) const;

  double mean() const {
    return Count == 0 ? 0.0
                      : static_cast<double>(Sum) / static_cast<double>(Count);
  }

  /// Adds \p Other's buckets, count, and sum into this snapshot (same
  /// bucket layout by construction).
  void merge(const HistogramSnapshot &Other);
};

/// Lock-free log-linear histogram of non-negative 64-bit values.
class Histogram {
public:
  /// Sub-bucket resolution: 2^SubBits linear sub-buckets per power of
  /// two. Values below 2^(SubBits+1) are recorded exactly.
  static constexpr unsigned SubBits = 3;
  /// Tight bucket count: exact buckets [0, 2^(SubBits+1)) plus one run
  /// of 2^SubBits sub-buckets per remaining octave.
  static constexpr unsigned NumBuckets =
      ((63 - SubBits) << SubBits) + (2u << SubBits);

  explicit Histogram(std::string Name) : Name(std::move(Name)) {}

  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  /// Records one value: a relaxed load and a branch while recording is
  /// disabled; four relaxed atomic RMWs while enabled. Thread-safe.
  void record(uint64_t V) {
    if (!statsEnabled())
      return;
    Buckets[bucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t Prev = MaxValue.load(std::memory_order_relaxed);
    while (Prev < V && !MaxValue.compare_exchange_weak(
                           Prev, V, std::memory_order_relaxed))
      ;
  }

  const std::string &name() const { return Name; }
  uint64_t count() const { return Count.load(std::memory_order_relaxed); }

  /// Consistent-enough snapshot of the relaxed counters (exact once
  /// recording threads are quiesced; a live snapshot may be mid-record
  /// by a handful of events, which the sampler tolerates).
  HistogramSnapshot snapshot() const;

  /// Zeroes every bucket (tests and repeated bench runs).
  void reset();

  //===--------------------------------------------------------------===//
  // Bucket layout contract (public so tests and readers can reason
  // about quantile determinism).
  //===--------------------------------------------------------------===//

  /// The bucket index \p V lands in. Monotonic in V and contiguous:
  /// bucketIndex(bucketBound(I)) == I and
  /// bucketIndex(bucketBound(I) + 1) == I + 1 for every non-final I.
  static unsigned bucketIndex(uint64_t V);

  /// Inclusive upper bound of bucket \p I — the largest value mapping
  /// to it.
  static uint64_t bucketBound(unsigned I);

private:
  std::string Name;
  std::atomic<uint64_t> Count{0}, Sum{0}, MaxValue{0};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// Process-wide registry of named histograms: a histogram is created on
/// first use and its reference stays valid for the registry's lifetime.
class HistogramRegistry {
public:
  static HistogramRegistry &global();

  /// The histogram named \p Name, created on first use. Cache the
  /// reference (function-local static) on hot paths.
  Histogram &histogram(const std::string &Name);

  /// Every histogram with at least one recorded value, sorted by name.
  std::vector<HistogramSnapshot> snapshot() const;

  /// Zeroes every histogram (tests and repeated bench runs).
  void reset();

  /// {"name": {"count": N, "sum": S, "max": M, "mean": ..., "p50": ...,
  /// "p90": ..., "p99": ...}, ...}.
  std::string toJson() const;

  /// "name: N recorded, sum S, mean M, p50 A, p90 B, p99 C, max D"
  /// lines, one per non-empty histogram (the --stats text).
  std::string toText() const;

private:
  HistogramRegistry() = default;
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// The phase a DEFACTO_SPAN histogram times: "x" for the histogram
/// "x_us", empty for a histogram without that suffix.
std::string spanPhase(const std::string &HistogramName);

/// RAII scope recording its wall time, rounded to the nearest
/// microsecond, into a histogram. While recording is disabled the
/// constructor is one relaxed load and a branch: no clock reads.
class ScopedSpan {
public:
  explicit ScopedSpan(Histogram &Hist) {
    if (!statsEnabled())
      return;
    H = &Hist;
    StartNs = nowNs();
  }
  ~ScopedSpan() {
    if (H)
      H->record(toMicros(nowNs() - StartNs));
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// \p Ns in microseconds, rounded to nearest (half up).
  static uint64_t toMicros(uint64_t Ns) { return (Ns + 500) / 1000; }

private:
  static uint64_t nowNs(); // steady clock
  Histogram *H = nullptr;  // null while recording is disabled
  uint64_t StartNs = 0;
};

} // namespace defacto

#define DEFACTO_SPAN_CONCAT2(A, B) A##B
#define DEFACTO_SPAN_CONCAT(A, B) DEFACTO_SPAN_CONCAT2(A, B)

/// Records the enclosing scope's wall time into the global histogram
/// \p NameStr "_us" (a string literal; the suffix is appended here so a
/// site has exactly one name). The histogram is resolved once.
#define DEFACTO_SPAN(NameStr)                                                \
  static ::defacto::Histogram &DEFACTO_SPAN_CONCAT(DefactoSpanHistogram_,    \
                                                   __LINE__) =               \
      ::defacto::HistogramRegistry::global().histogram(NameStr "_us");       \
  ::defacto::ScopedSpan DEFACTO_SPAN_CONCAT(DefactoSpan_, __LINE__)(         \
      DEFACTO_SPAN_CONCAT(DefactoSpanHistogram_, __LINE__))

#endif // DEFACTO_SUPPORT_HISTOGRAM_H
