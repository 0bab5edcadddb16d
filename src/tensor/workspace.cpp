#include "tensor/workspace.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/env.hpp"
#include "parallel/thread_pool.hpp"

namespace fekf {

namespace {

/// Default slab capacity in f32 elements (4 MiB). Oversized requests get a
/// dedicated slab of exactly their (aligned) size.
constexpr i64 kSlabElems = i64{1} << 20;

/// Allocation granularity in elements: 16 f32 = 64 bytes, one cache line,
/// so consecutive tensors in a slab never share a line (matters for the
/// disjoint-output-partition determinism argument — no false sharing).
constexpr i64 kAlignElems = 16;

/// Bumped by every outermost scope exit; an arena behind it owes a lazy
/// rewind of its free slabs.
std::atomic<u64> g_epoch{0};

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env::get_flag("FEKF_ARENA", true)};
  return flag;
}

/// Registry of every thread's arena, for stats() and reset_stats().
/// Registration happens once per thread (thread_local construction) and
/// unregistration once at thread exit, so the lock is cold.
///
/// Both the mutex and the vector are intentionally immortal (heap-allocated,
/// never freed): pool workers are joined by a static destructor, so their
/// thread_local ~Workspace calls can run AFTER ordinary function-local
/// statics here are destroyed — unregistering through a destroyed vector is
/// a use-after-free. A pointer held by a static keeps the allocation
/// reachable, so LeakSanitizer does not flag it.
std::mutex& registry_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::vector<Workspace*>& registry() {
  static std::vector<Workspace*>* r = new std::vector<Workspace*>();
  return *r;
}

}  // namespace

struct Workspace::Slab {
  explicit Slab(i64 cap)
      : mem(new f32[static_cast<std::size_t>(cap)]), capacity(cap) {}
  std::unique_ptr<f32[]> mem;
  i64 capacity;    ///< elements
  i64 offset = 0;  ///< bump cursor, elements
};

Workspace::Workspace() : epoch_(g_epoch.load(std::memory_order_relaxed)) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry().push_back(this);
}

Workspace::~Workspace() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto& r = registry();
  r.erase(std::remove(r.begin(), r.end(), this), r.end());
}

Workspace& Workspace::local() {
  thread_local Workspace ws;
  return ws;
}

bool Workspace::armed() { return thread_arena_armed() && enabled(); }

bool Workspace::enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

void Workspace::set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

bool Workspace::rewind_pending() const {
  return epoch_.load(std::memory_order_relaxed) !=
         g_epoch.load(std::memory_order_relaxed);
}

std::shared_ptr<f32[]> Workspace::allocate(i64 numel) {
  if (rewind_pending()) {
    // Another thread's scope closed since this arena last rewound: reuse
    // what its tensors freed, keep what any open scope still holds.
    const u64 e = g_epoch.load(std::memory_order_relaxed);
    rewind(/*retire_busy=*/false);
    epoch_.store(e, std::memory_order_relaxed);
  }
  const i64 want = (numel + kAlignElems - 1) & ~(kAlignElems - 1);
  while (true) {
    if (cursor_ < slabs_.size()) {
      Slab& s = *slabs_[cursor_];
      if (s.capacity - s.offset >= want) break;
      ++cursor_;  // tail waste is reclaimed at the next rewind
      continue;
    }
    const i64 cap = std::max(kSlabElems, want);
    slabs_.push_back(std::make_shared<Slab>(cap));
    slab_count_.fetch_add(1, std::memory_order_relaxed);
    reserved_bytes_.fetch_add(cap * static_cast<i64>(sizeof(f32)),
                              std::memory_order_relaxed);
  }
  const std::shared_ptr<Slab>& sp = slabs_[cursor_];
  f32* ptr = sp->mem.get() + sp->offset;
  sp->offset += want;
  allocs_.fetch_add(1, std::memory_order_relaxed);
  scope_bytes_.fetch_add(numel * static_cast<i64>(sizeof(f32)),
                         std::memory_order_relaxed);
  // Aliasing constructor: the tensor's handle shares the SLAB's control
  // block, so use_count() below is an exact live-tensor census per slab.
  return std::shared_ptr<f32[]>(sp, ptr);
}

void Workspace::rewind(bool retire_busy) {
  std::vector<std::shared_ptr<Slab>> kept;
  kept.reserve(slabs_.size());
  for (std::shared_ptr<Slab>& sp : slabs_) {
    // Live-tensor census. use_count() alone is a relaxed load; copying the
    // handle is an acquire-release increment (libstdc++) that reads the
    // count the last tensor's release left, so it orders that tensor's uses,
    // on whichever thread dropped it, before this rewind reuses its bytes.
    // No tensor can regrow the count meanwhile: copies need a holder.
    const std::shared_ptr<Slab> census = sp;
    if (census.use_count() == 2) {
      sp->offset = 0;
      kept.push_back(std::move(sp));
    } else if (!retire_busy) {
      kept.push_back(std::move(sp));  // still held: bump on past its bytes
    } else {
      // A tensor escaped the owner's scope: the escapee keeps the slab
      // alive, and this arena never touches it again.
      retired_.fetch_add(1, std::memory_order_relaxed);
      slab_count_.fetch_sub(1, std::memory_order_relaxed);
      reserved_bytes_.fetch_sub(sp->capacity * static_cast<i64>(sizeof(f32)),
                                std::memory_order_relaxed);
    }
  }
  slabs_ = std::move(kept);
  cursor_ = 0;
  const i64 sb = scope_bytes_.exchange(0, std::memory_order_relaxed);
  if (sb > 0) {
    last_scope_bytes_.store(sb, std::memory_order_relaxed);
    i64 peak = peak_scope_bytes_.load(std::memory_order_relaxed);
    while (sb > peak && !peak_scope_bytes_.compare_exchange_weak(
                            peak, sb, std::memory_order_relaxed)) {
    }
  }
}

void Workspace::end_scope() {
  Workspace& ws = local();
  ws.rewind(/*retire_busy=*/true);
  ws.epoch_.store(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

ArenaScope::ArenaScope() : outer_armed_(thread_arena_armed()) {
  set_thread_arena_armed(true);
}

ArenaScope::~ArenaScope() {
  set_thread_arena_armed(outer_armed_);
  if (!outer_armed_ && Workspace::enabled()) Workspace::end_scope();
}

WorkspaceStats Workspace::stats() {
  WorkspaceStats out;
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const Workspace* ws : registry()) {
    out.slabs += ws->slab_count_.load(std::memory_order_relaxed);
    out.reserved_bytes += ws->reserved_bytes_.load(std::memory_order_relaxed);
    const i64 sb = ws->scope_bytes_.load(std::memory_order_relaxed);
    i64 last = ws->last_scope_bytes_.load(std::memory_order_relaxed);
    i64 peak = ws->peak_scope_bytes_.load(std::memory_order_relaxed);
    if (ws->rewind_pending() && sb > 0) {
      // The scope these bytes belong to has closed; the arena will roll
      // them over at its next allocation, exactly like this.
      last = sb;
      peak = std::max(peak, sb);
    } else {
      out.scope_bytes += sb;
    }
    out.last_scope_bytes += last;
    out.peak_scope_bytes += peak;
    out.allocs += ws->allocs_.load(std::memory_order_relaxed);
    out.retired_slabs += ws->retired_.load(std::memory_order_relaxed);
  }
  return out;
}

void Workspace::reset_stats() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (Workspace* ws : registry()) {
    // A pending arena's scope bytes belong to a closed scope: clear them
    // with the rest of that scope's record.
    if (ws->rewind_pending()) {
      ws->scope_bytes_.store(0, std::memory_order_relaxed);
    }
    ws->last_scope_bytes_.store(0, std::memory_order_relaxed);
    ws->peak_scope_bytes_.store(0, std::memory_order_relaxed);
    ws->allocs_.store(0, std::memory_order_relaxed);
    ws->retired_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fekf
