//===- Stats.h - Cheap named counters and gauges ---------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-Statistic-style counters for the exploration engine: a Statistic
/// is a named, statically registered, thread-safe counter whose hot-path
/// cost is one relaxed atomic increment — and nothing at all while the
/// registry is disabled (the default), so instrumented code pays only a
/// relaxed load and a predictable branch per event site.
///
/// Every Statistic registers itself with the process-wide StatRegistry,
/// which can snapshot, print (text or JSON), and reset the whole set.
/// The intended idiom mirrors LLVM:
///
///   DEFACTO_STATISTIC(NumCacheHits, "cache", "hits",
///                     "completed estimate-cache entries served");
///   ...
///   ++NumCacheHits;          // no-op unless StatRegistry is enabled
///
/// The registry's enable bit also gates the histograms and phase spans
/// (Histogram.h): one switch turns the whole metric surface on for a run.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_STATS_H
#define DEFACTO_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace defacto {

namespace detail {
/// The registry enable bit, read on every counter/histogram hot path. Only
/// StatRegistry::setEnabled writes it.
extern std::atomic<bool> StatsEnabledFlag;
} // namespace detail

/// True when counters, histograms and phase spans are recording.
inline bool statsEnabled() {
  return detail::StatsEnabledFlag.load(std::memory_order_relaxed);
}

/// One named counter/gauge. Construction registers it for the lifetime
/// of the process; declare Statistics at namespace scope in a .cpp (the
/// DEFACTO_STATISTIC macro) so each has exactly one instance.
class Statistic {
public:
  Statistic(const char *Group, const char *Name, const char *Description);

  Statistic(const Statistic &) = delete;
  Statistic &operator=(const Statistic &) = delete;

  /// Counter increment: a single relaxed atomic add when recording is
  /// enabled, a relaxed load and branch otherwise.
  void add(uint64_t N) {
    if (statsEnabled())
      Value.fetch_add(N, std::memory_order_relaxed);
  }
  Statistic &operator++() {
    add(1);
    return *this;
  }
  void operator++(int) { add(1); }

  /// Gauge assignment (last write wins). Like add(), gated on the
  /// registry enable bit.
  void set(uint64_t V) {
    if (statsEnabled())
      Value.store(V, std::memory_order_relaxed);
  }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

  const char *group() const { return Group; }
  const char *name() const { return Name; }
  const char *description() const { return Description; }

private:
  friend class StatRegistry;
  const char *Group;
  const char *Name;
  const char *Description;
  std::atomic<uint64_t> Value{0};
};

/// One counter's value at snapshot time.
struct StatSnapshot {
  std::string Group;
  std::string Name;
  std::string Description;
  uint64_t Value = 0;
};

/// Process-wide set of every Statistic, plus the enable bit shared with
/// the histograms.
class StatRegistry {
public:
  static StatRegistry &instance();

  /// Turns counter and histogram recording on or off. Counters keep their
  /// values across a disable; reset() zeroes them.
  void setEnabled(bool On) {
    detail::StatsEnabledFlag.store(On, std::memory_order_relaxed);
  }
  bool enabled() const { return statsEnabled(); }

  /// Called by the Statistic constructor; not for general use.
  void registerStat(Statistic *S);

  /// All counters, sorted by (group, name). Each value is one relaxed
  /// read; the set of registered counters is stable after static init.
  std::vector<StatSnapshot> snapshot() const;

  /// Zeroes every registered counter (tests and repeated bench runs).
  void reset();

  /// "group.name = value  (description)" lines, zero-valued counters
  /// included, sorted.
  std::string toText() const;

  /// {"group.name": value, ...} — one flat JSON object.
  std::string toJson() const;

private:
  StatRegistry() = default;
  mutable std::mutex M;
  std::vector<Statistic *> Stats;
};

} // namespace defacto

/// Declares-and-defines one registered Statistic. Use at namespace scope
/// in a .cpp file.
#define DEFACTO_STATISTIC(Var, Group, Name, Desc)                            \
  static ::defacto::Statistic Var(Group, Name, Desc)

#endif // DEFACTO_SUPPORT_STATS_H
