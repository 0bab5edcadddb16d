#include "parallel/thread_pool.hpp"

#include <memory>

#include "core/env.hpp"

namespace fekf {

namespace {

thread_local bool t_in_parallel = false;
thread_local bool t_arena_armed = false;

i64 default_thread_count() {
  static const i64 cached = [] {
    const i64 n = env::get_i64("FEKF_NUM_THREADS", 0);
    if (n > 0) return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<i64>(hw) : i64{1};
  }();
  return cached;
}

/// Runtime width cap; 0 means "use the default".
std::atomic<i64> g_width_cap{0};

}  // namespace

ThreadPool::ThreadPool(i64 threads) {
  if (threads <= 0) threads = default_thread_count();
  // The calling thread always participates in for_range, so spawn one fewer
  // worker than the requested width (a width-1 pool has no workers at all).
  ensure_width(threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ensure_width(i64 threads) {
  const i64 want_workers = threads - 1;
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<i64>(workers_.size()) < want_workers) {
    workers_.emplace_back([this] { worker_loop(); });
    worker_count_.store(static_cast<i64>(workers_.size()),
                        std::memory_order_relaxed);
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  if (size() == 0) {
    packaged();  // no workers: run inline
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::for_range_blocks(i64 begin, i64 end,
                                  const std::function<void(i64, i64)>& fn,
                                  i64 grain, i64 width) {
  if (begin >= end) return;
  FEKF_CHECK(grain >= 1, "grain must be >= 1");
  const i64 n = end - begin;
  i64 w = size() + 1;
  if (width > 0) w = std::min(w, width);
  // Serial fast path: single width, sub-grain range, or a nested region
  // (a worker re-entering for_range runs inline — no deadlock).
  if (w == 1 || n <= grain || t_in_parallel) {
    fn(begin, end);
    return;
  }
  // Dynamic chunking: an atomic cursor hands out fixed-size chunks. Chunk
  // boundaries depend only on (begin, end, grain); which thread runs which
  // chunk does not affect any caller that keeps chunk outputs disjoint.
  struct State {
    std::atomic<i64> cursor;
    std::mutex m;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<State>();
  state->cursor.store(begin, std::memory_order_relaxed);
  // Helper tasks allocate from their worker's arena exactly when the
  // issuing thread is armed (tensor/workspace.hpp).
  const bool armed = t_arena_armed;
  auto body = [state, end, grain, armed, &fn] {
    const bool was_nested = t_in_parallel;
    const bool was_armed = t_arena_armed;
    t_in_parallel = true;
    t_arena_armed = armed;
    for (;;) {
      const i64 lo = state->cursor.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= end) break;
      const i64 hi = std::min(lo + grain, end);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->m);
        if (!state->first_error) state->first_error = std::current_exception();
        state->cursor.store(end, std::memory_order_relaxed);  // drain fast
      }
    }
    t_in_parallel = was_nested;
    t_arena_armed = was_armed;
  };
  const i64 nchunks = (n + grain - 1) / grain;
  const i64 helpers = std::min<i64>(w - 1, nchunks - 1);
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(helpers));
  for (i64 t = 0; t < helpers; ++t) {
    futures.push_back(submit(body));
  }
  body();  // calling thread participates
  for (auto& f : futures) f.get();  // body() never leaks exceptions
  if (state->first_error) std::rethrow_exception(state->first_error);
}

void ThreadPool::for_range(i64 begin, i64 end,
                           const std::function<void(i64)>& fn, i64 grain,
                           i64 width) {
  for_range_blocks(
      begin, end,
      [&fn](i64 lo, i64 hi) {
        for (i64 i = lo; i < hi; ++i) fn(i);
      },
      grain, width);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

i64 num_threads() {
  const i64 cap = g_width_cap.load(std::memory_order_relaxed);
  return cap > 0 ? cap : default_thread_count();
}

void set_num_threads(i64 n) {
  if (n <= 0) {
    g_width_cap.store(0, std::memory_order_relaxed);
    return;
  }
  g_width_cap.store(n, std::memory_order_relaxed);
  ThreadPool::global().ensure_width(n);
}

bool in_parallel_region() { return t_in_parallel; }

bool thread_arena_armed() { return t_arena_armed; }

void set_thread_arena_armed(bool armed) { t_arena_armed = armed; }

void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& fn,
                  i64 grain) {
  ThreadPool::global().for_range(begin, end, fn, grain, num_threads());
}

void parallel_for_blocks(i64 begin, i64 end,
                         const std::function<void(i64, i64)>& fn, i64 grain) {
  ThreadPool::global().for_range_blocks(begin, end, fn, grain, num_threads());
}

f64 parallel_reduce_f64(i64 begin, i64 end, i64 chunk,
                        const std::function<f64(i64, i64)>& chunk_fn) {
  if (begin >= end) return 0.0;
  FEKF_CHECK(chunk >= 1, "chunk must be >= 1");
  const i64 n = end - begin;
  const i64 nchunks = (n + chunk - 1) / chunk;
  if (nchunks == 1) return chunk_fn(begin, end);
  std::vector<f64> partials(static_cast<std::size_t>(nchunks), 0.0);
  parallel_for_blocks(
      0, nchunks,
      [&](i64 clo, i64 chi) {
        for (i64 c = clo; c < chi; ++c) {
          const i64 lo = begin + c * chunk;
          partials[static_cast<std::size_t>(c)] =
              chunk_fn(lo, std::min(lo + chunk, end));
        }
      },
      1);
  f64 acc = 0.0;  // fixed ascending-chunk combine: width-independent
  for (const f64 p : partials) acc += p;
  return acc;
}

}  // namespace fekf
