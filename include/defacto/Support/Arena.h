//===- Arena.h - Bump-pointer arena for IR nodes ---------------*- C++ -*-===//
//
// Part of the DEFACTO-DSE project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer allocation arena for short-lived IR clones. The
/// evaluation hot path clones one kernel per candidate design, runs the
/// transform pipeline and estimator over it, and throws the whole tree
/// away; with the arena that lifetime is one pointer bump per node and a
/// single reset per candidate instead of a heap round-trip per node.
///
/// Integration is via the thread-local active arena: `IRArenaScope`
/// installs an arena for the current thread, and `Expr`/`Stmt` class
/// `operator new` routes node allocations into it while the scope is
/// open (everything else — declarations, strings, vectors — stays on the
/// heap). `operator delete` consults the thread's *registered* arenas so
/// destruction of arena-backed nodes is a no-op; the memory is reclaimed
/// wholesale by `IRArena::reset()`.
///
/// Passing nullptr to `IRArenaScope` suspends arena allocation, which is
/// how a kernel that must outlive the arena's next reset() is built on
/// the heap from inside an arena-backed region.
///
//===----------------------------------------------------------------------===//

#ifndef DEFACTO_SUPPORT_ARENA_H
#define DEFACTO_SUPPORT_ARENA_H

#include <cstddef>
#include <memory>
#include <vector>

namespace defacto {

/// A growable bump-pointer arena. Blocks are retained across reset() so a
/// steady-state evaluation loop stops growing after the largest candidate
/// has been seen once. Not thread-safe; intended use is one arena per
/// worker thread.
class IRArena {
public:
  IRArena();
  ~IRArena();

  IRArena(const IRArena &) = delete;
  IRArena &operator=(const IRArena &) = delete;

  /// Returns Size bytes aligned for any IR node type. Never returns
  /// nullptr (allocation failure throws std::bad_alloc).
  void *allocate(std::size_t Size);

  /// Rewinds the arena to empty, keeping every block for reuse. All
  /// memory previously returned by allocate() is invalidated.
  void reset();

  /// True when P points into one of this arena's blocks.
  bool owns(const void *P) const;

  /// Bytes handed out since the last reset().
  std::size_t bytesAllocated() const { return LiveBytes; }

  /// Number of blocks currently held (allocated capacity, kept across
  /// resets).
  std::size_t numBlocks() const { return Blocks.size(); }

private:
  struct Block {
    std::unique_ptr<char[]> Memory;
    std::size_t Size = 0;
  };

  /// Starts (or advances to) a block with at least Size free bytes.
  void *allocateSlow(std::size_t Size);

  std::vector<Block> Blocks;
  std::size_t CurBlock = 0;  ///< Index of the block being bumped.
  std::size_t CurOffset = 0; ///< Bump offset within Blocks[CurBlock].
  std::size_t LiveBytes = 0;
};

/// RAII installer for the calling thread's active arena. While an
/// IRArenaScope holds a non-null arena, Expr/Stmt node allocations on
/// this thread come from that arena; a nullptr scope suspends arena
/// allocation (nested inside an active scope, this is how heap-lifetime
/// IR is built from arena-backed code). Scopes nest and restore the
/// previous arena on destruction.
///
/// A non-null arena is additionally *registered* for the thread for the
/// remainder of the thread's lifetime, so node deletion can recognize
/// arena memory and skip the heap free even after the scope closes.
class IRArenaScope {
public:
  explicit IRArenaScope(IRArena *Arena);
  ~IRArenaScope();

  IRArenaScope(const IRArenaScope &) = delete;
  IRArenaScope &operator=(const IRArenaScope &) = delete;

private:
  IRArena *Previous;
};

/// The arena IR node allocations on this thread currently target, or
/// nullptr when nodes go to the heap.
IRArena *activeIRArena();

namespace detail {

/// Allocation hook for Expr/Stmt operator new: active arena if one is
/// installed, global heap otherwise.
void *irNodeAllocate(std::size_t Size);

/// Deallocation hook for Expr/Stmt operator delete: a no-op for memory
/// owned by any arena registered on this thread, a heap free otherwise.
void irNodeDeallocate(void *P) noexcept;

} // namespace detail

} // namespace defacto

#endif // DEFACTO_SUPPORT_ARENA_H
