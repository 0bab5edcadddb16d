// Work-queue thread pool. One process-wide pool (sized from
// hardware_concurrency or FEKF_NUM_THREADS) backs parallel_for; dedicated
// pools can be created for tests and auxiliary work.
//
// Threading model (see DESIGN.md "Threading & determinism"):
//  * parallel_for / parallel_for_blocks dispatch over the GLOBAL pool,
//    capped at num_threads(). set_num_threads() changes the cap at runtime
//    (growing the pool if needed) — the bench_scaling sweep and the
//    determinism tests use it to compare widths inside one process.
//  * Scheduling is dynamic (atomic cursor over fixed-size chunks), so it is
//    only used where the OUTPUT is independent of the chunk-to-thread
//    assignment: disjoint output ranges, or reductions that go through
//    parallel_reduce_f64, whose chunk partition depends only on the range
//    (never on the thread count) and whose partials are combined in
//    ascending chunk order. Both make every kernel bit-exact across widths.
//  * Nested parallel regions run serially: a for_range issued from inside a
//    pool task executes inline on that worker (no deadlock, no
//    oversubscription). Parallelism therefore lives at the outermost level
//    that reaches a region, with identical results either way: one sample
//    per task in the batched forward (measurement assembly) and in its
//    backward (ag::grad's per-term sweep, whose leaf gradients the caller
//    folds in the serial sweep's order), one EKF block per task in the
//    update, per-row kernel panels everywhere else.
//  * A helper task runs with the parallel-region flag set and with its
//    issuer's arena arm bit (tensor/workspace.hpp), and restores the
//    worker's own values when it ends.
//  * Exceptions thrown by workers are captured, the region drains, and the
//    first exception rethrows on the calling thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/common.hpp"

namespace fekf {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (min 1), overridable with
  /// the FEKF_NUM_THREADS environment variable.
  explicit ThreadPool(i64 threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  i64 size() const { return worker_count_.load(std::memory_order_relaxed); }

  /// Grow the pool so for_range can span `threads` (workers + caller).
  /// Workers are only ever added, never removed.
  void ensure_width(i64 threads);

  /// Enqueue a task; the returned future reports completion / exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [begin, end) across the pool and wait. The calling
  /// thread participates, so a pool of size 1 still makes progress, and a
  /// nested call from a worker runs serially inline. `width` > 0 caps the
  /// number of participating threads.
  void for_range(i64 begin, i64 end, const std::function<void(i64)>& fn,
                 i64 grain = 1, i64 width = 0);

  /// Block form: fn(lo, hi) receives whole chunks of at most `grain`
  /// indices, amortizing the per-index std::function dispatch — the form
  /// every hot kernel uses. Chunks may execute in any order on any thread;
  /// callers must keep chunk outputs disjoint (or reduce via
  /// parallel_reduce_f64).
  void for_range_blocks(i64 begin, i64 end,
                        const std::function<void(i64, i64)>& fn,
                        i64 grain = 1, i64 width = 0);

  /// Process-wide pool, created on first use.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::atomic<i64> worker_count_{0};
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Effective width used by parallel_for: the runtime cap if set, else
/// FEKF_NUM_THREADS, else hardware_concurrency.
i64 num_threads();

/// Cap (n > 0) or restore to the default (n <= 0) the width used by
/// parallel_for, growing the global pool if needed. Thread-safe; intended
/// for benches and tests sweeping widths inside one process.
void set_num_threads(i64 n);

/// True while executing inside a parallel_for/for_range task; nested
/// regions observe it and run serially.
bool in_parallel_region();

/// The calling thread's arena arm bit (tensor/workspace.hpp): set while the
/// thread has an ArenaScope open. for_range copies the issuing thread's
/// bit into every helper task, as it does the parallel-region flag, so a
/// pool task allocates from its worker's arena exactly when the thread that
/// issued it is armed. Only ArenaScope should set it.
bool thread_arena_armed();
void set_thread_arena_armed(bool armed);

/// Convenience wrappers over ThreadPool::global(), capped at num_threads().
void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn,
                  i64 grain = 1);
void parallel_for_blocks(i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn,
                         i64 grain = 1);

/// Deterministic parallel reduction: partition [begin, end) into fixed
/// chunks of `chunk` indices (a function of the range only — never of the
/// thread count), evaluate chunk_fn(lo, hi) -> f64 partials in parallel,
/// and combine them in ascending chunk order. Bit-exact for any width,
/// including 1; with a single chunk it degenerates to one serial call.
f64 parallel_reduce_f64(i64 begin, i64 end, i64 chunk,
                        const std::function<f64(i64, i64)>& chunk_fn);

// ---------------------------------------------------------------------------
// Grain-size policy for the hot kernels (DESIGN.md "Threading &
// determinism"): a task should carry at least kGrainWork scalar operations,
// and a range whose TOTAL work is below that stays serial (for_range runs
// inline when n <= grain), so unit-test-sized tensors never pay dispatch
// overhead.
// ---------------------------------------------------------------------------

inline constexpr i64 kGrainWork = i64{1} << 14;

/// Fixed chunk length for parallel_reduce_f64 over flat buffers. Ranges at
/// or below one chunk reduce with the same straight-line loop as the serial
/// kernel, so small reductions are bit-identical to the pre-threading code.
inline constexpr i64 kReduceChunk = i64{1} << 15;

/// Items per task such that one task performs ~kGrainWork scalar ops given
/// the per-item cost (e.g. one gemm output row costs k*n madds).
inline constexpr i64 grain_items(i64 work_per_item) {
  return work_per_item >= kGrainWork
             ? 1
             : kGrainWork / (work_per_item < 1 ? 1 : work_per_item);
}

}  // namespace fekf
