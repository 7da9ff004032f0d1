//===- KernelSession.h - Per-kernel unroll-invariant state -----*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the exploration engine derives from a kernel before it
/// looks at a single design: the normalized nest with its warmed
/// dependence analysis, the saturation analysis (§5.1), the unroll and
/// design spaces, the §5.3 unroll preference order, and the pairwise
/// interchange-legality matrix. None of it depends on the design, the
/// platform's memory count aside (Psat, re-derived per board), or the
/// exploration options — so one session serves every exploration of the
/// kernel.
///
/// EvaluationService is built over a session. The library and
/// BatchExplorer build a private one per exploration; the daemon keeps a
/// bounded KernelSessionCache so a repeat request skips the parse, the
/// fingerprints, saturation, normalization and dependence analysis.
///
/// A session is immutable after construction and safe to share
/// read-only across threads.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_CORE_KERNELSESSION_H
#define DEFACTO_CORE_KERNELSESSION_H

#include "defacto/Core/DesignSpace.h"
#include "defacto/Core/Saturation.h"
#include "defacto/Support/Error.h"
#include "defacto/Transforms/Pipeline.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace defacto {

/// The unroll-invariant analysis of one source kernel.
class KernelSession {
public:
  /// Analyzes \p Source, which the session takes over.
  explicit KernelSession(Kernel Source);

  KernelSession(const KernelSession &) = delete;
  KernelSession &operator=(const KernelSession &) = delete;

  /// Shorthand for std::make_shared<const KernelSession>(Source).
  static std::shared_ptr<const KernelSession> create(Kernel Source);

  const Kernel &source() const { return Source; }
  /// kernelFingerprint(source()): the estimate-cache key component.
  uint64_t fingerprint() const { return SourceFp; }
  /// The normalized kernel and its analysis cache (dependence warmed).
  const PipelineContext &context() const { return Ctx; }

  /// Saturation data for a board with \p NumMemories memories.
  SaturationInfo saturation(unsigned NumMemories) const;

  const UnrollSpace &space() const { return DSpace.unroll(); }
  const DesignSpace &designSpace() const { return DSpace; }
  /// Nest positions in §5.3 unroll-preference order, best first.
  const std::vector<unsigned> &preference() const { return Preference; }

  /// True when swapping nest positions \p A and \p B preserves every
  /// dependence (canInterchange over the context's cached analysis).
  bool canInterchange(unsigned A, unsigned B) const;

private:
  Kernel Source;
  uint64_t SourceFp;
  PipelineContext Ctx;
  /// Saturation for one memory; saturation() re-derives Psat.
  SaturationInfo Sat;
  DesignSpace DSpace;
  std::vector<unsigned> Preference;
  /// Row-major Depth x Depth interchange legality.
  std::vector<bool> Legal;
  unsigned Depth = 0;
};

/// A bounded, thread-safe LRU store of sessions keyed by request content
/// (a kernel name, or inline source bytes). Both bounds are hard: the
/// entry count and the total key bytes (which include any inline
/// source). A session whose key alone exceeds the byte bound is built
/// and returned but never stored. Evicted sessions stay alive for as
/// long as an exploration still holds them.
class KernelSessionCache {
public:
  KernelSessionCache(size_t MaxEntries, size_t MaxBytes);

  /// The session stored under \p Key, or a new one over the kernel
  /// \p Build returns (built outside the lock; a failure is returned and
  /// nothing is stored).
  Expected<std::shared_ptr<const KernelSession>>
  getOrBuild(const std::string &Key,
             const std::function<Expected<Kernel>()> &Build);

  size_t size() const;
  /// Total key bytes currently stored.
  size_t bytes() const;
  size_t maxEntries() const { return MaxEntries; }
  size_t maxBytes() const { return MaxBytes; }

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;

private:
  using Entry = std::pair<std::string, std::shared_ptr<const KernelSession>>;

  const size_t MaxEntries;
  const size_t MaxBytes;
  mutable std::mutex M;
  std::list<Entry> Lru; // most recently used first
  /// Views into the keys the Lru nodes own (stable node addresses).
  std::unordered_map<std::string_view, std::list<Entry>::iterator> Index;
  size_t Bytes = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace defacto

#endif // DEFACTO_CORE_KERNELSESSION_H
