// Per-thread bump-pointer arena ("Workspace") for tensor temporaries.
//
// One training step allocates hundreds of short-lived tensors (autograd op
// outputs, kernel scratch) that all die when the measurement graph is
// dropped at the end of the step, and one serving batch does the same for
// its activations. The paper's implementation avoids paying cudaMalloc for
// these by drawing them from a reused workspace; this is the CPU analog:
// while the calling thread is armed, Tensor storage comes from that
// thread's Workspace (a chain of large slabs bumped by a cursor) instead of
// operator new.
//
// Who is armed. A thread is armed while it has an ArenaScope open, or
// while it runs a pool task issued from an armed thread: for_range copies
// the issuing thread's arm bit into every helper task, as it carries the
// parallel-region flag (parallel/thread_pool.hpp). Arming is per thread,
// so a walker thread building envs stays on the heap while a serving
// batch is open on another thread, and a trainer and a server can each
// hold a scope at once.
//
// Who rewinds. Only a Workspace's own thread ever touches its slabs.
//  * The outermost scope's exit rewinds the calling thread's arena: slabs
//    whose use_count shows no live tensor restart at offset 0; a slab that
//    a tensor escaped the scope with is RETIRED instead — dropped from the
//    arena (the escapee keeps it alive) and never reused, so memory the
//    arena handed out is never aliased by a later scope. Tests assert the
//    retired count to catch accidental escapes. The exit also bumps a
//    global epoch.
//  * Every other arena (pool workers that ran armed tasks) rewinds itself
//    at its first armed allocation after a bump. That lazy rewind resets
//    free slabs only and leaves a slab a live tensor holds exactly as it
//    is, neither rewound nor retired, since the holder may be another
//    owner's open step. Bumping past such a slab stays safe: its live
//    bytes sit below its cursor.
//  * A scope opened on an already-armed thread (say, inside a pool task
//    of an armed issuer) nests in the issuer's scope and rewinds nothing.
// A tensor's storage shared_ptr aliases its slab's control block, so
// use_count() is an exact live-tensor census per slab; the census takes a
// copy of the slab handle to read it (see workspace.cpp), which orders the
// last holder's uses, on whatever thread it dropped the tensor, before the
// rewind reuses the bytes.
//
// FEKF_ARENA=0 (or "off"/"false") disables the arena globally; scopes then
// arm nothing and every tensor falls back to operator new, which is the
// bit-identical reference path (the arena changes where bytes live, never
// what they hold).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/common.hpp"

namespace fekf {

/// Aggregated allocator counters (sums over every thread's arena). Exact at
/// quiescent points: an arena whose lazy rewind is still pending reports
/// the bytes it handed out as its last completed scope.
struct WorkspaceStats {
  i64 slabs = 0;            ///< live slabs currently owned by arenas
  i64 reserved_bytes = 0;   ///< total capacity of those slabs
  i64 scope_bytes = 0;      ///< bytes handed out in the open scope
  i64 last_scope_bytes = 0; ///< bytes handed out in the last completed scope
  i64 peak_scope_bytes = 0; ///< max bytes a single scope ever handed out
  i64 allocs = 0;           ///< tensor allocations served from slabs
  i64 retired_slabs = 0;    ///< slabs abandoned because a tensor escaped
};

class Workspace {
 public:
  Workspace();
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Bump-allocate storage for `numel` f32 elements. The returned pointer
  /// aliases the owning slab's control block (zero extra heap traffic).
  /// Call only on this arena's own thread.
  std::shared_ptr<f32[]> allocate(i64 numel);

  /// The calling thread's arena (thread_local, registered for stats()).
  static Workspace& local();

  /// True when the calling thread is armed AND the arena is enabled — the
  /// gate the Tensor constructor checks.
  static bool armed();

  /// Process-wide enable switch, initialized once from FEKF_ARENA.
  static bool enabled();
  static void set_enabled(bool on);

  static WorkspaceStats stats();
  static void reset_stats();

 private:
  friend class ArenaScope;
  /// Outermost scope exit: rewind the calling thread's arena, then bump the
  /// epoch so every other arena rewinds its free slabs lazily.
  static void end_scope();

  struct Slab;
  /// Rewind free slabs; retire (retire_busy) or keep the busy ones.
  void rewind(bool retire_busy);
  /// True when an epoch bump has not reached this arena yet.
  bool rewind_pending() const;

  // Slab chain and cursor: touched by the owning thread only.
  std::vector<std::shared_ptr<Slab>> slabs_;
  std::size_t cursor_ = 0;  ///< slabs before cursor_ are full for this scope
  // Counters: atomics, since stats() reads them from any thread.
  std::atomic<u64> epoch_;  ///< global epoch at this arena's last rewind
  std::atomic<i64> slab_count_{0};
  std::atomic<i64> scope_bytes_{0};
  std::atomic<i64> last_scope_bytes_{0};
  std::atomic<i64> peak_scope_bytes_{0};
  std::atomic<i64> allocs_{0};
  std::atomic<i64> retired_{0};
  std::atomic<i64> reserved_bytes_{0};
};

/// RAII scope: arms the calling thread for its lifetime. Place it so that
/// every tensor allocated under it (the forward/backward graph, the
/// measurement, a batch's predictions) is destroyed first — the trainers
/// open one per update before the measurement variable, and
/// serve::evaluate_prepared one per batch. Only a scope opened on an
/// unarmed thread rewinds at exit; a nested one only restores the bit.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  bool outer_armed_;
};

}  // namespace fekf
