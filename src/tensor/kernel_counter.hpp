// Kernel-launch accounting.
//
// The paper's Figure 7(b) measures the number of CUDA kernels launched per
// training iteration at each optimization level (baseline autograd ->
// hand-written derivatives -> fusion -> optimizer kernels). In this CPU
// reproduction, every primitive tensor kernel reports a "launch" here; fused
// custom kernels report exactly one. The *ratio* between configurations is
// the quantity the experiment reproduces.
//
// Thread safety: record() may be called concurrently from thread-pool
// workers (per-sample measurement assembly runs forward passes in
// parallel). The total is a relaxed atomic and the per-name breakdown is
// mutex-guarded, so counts are EXACT — not approximate — at any thread
// width; bench_fig7bc_kernels asserts 1-thread and N-thread launch counts
// are identical. Kernels record once per launch on the thread that issues
// the kernel, never per worker chunk, so parallelizing a kernel's interior
// does not change its count.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "core/common.hpp"
#include "obs/trace.hpp"

namespace fekf {

class KernelCounter {
 public:
  /// Record one launch of kernel `name`. Cheap when disabled (single
  /// relaxed atomic load).
  static void record(const char* name);

  /// Enable/disable counting and per-name breakdown collection.
  static void enable(bool on);
  static bool enabled();

  static void reset();
  static i64 total();

  /// Per-kernel-name launch counts since the last reset.
  static std::map<std::string, i64> breakdown();

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<i64> total_;
  static std::mutex mutex_;
  static std::map<std::string, i64>& names();
};

/// RAII kernel-launch marker placed at the top of every primitive kernel:
/// records one KernelCounter launch AND — when FEKF_TRACE_KERNELS is on
/// while a span sink captures — opens a "kernel"-category span covering
/// the kernel body, so every counted launch in Figure 7(b) is attributable
/// on the trace timeline. `name` must be a string literal. Disabled cost: the
/// counter's relaxed load plus one relaxed load for the span gate.
class KernelLaunch {
 public:
  explicit KernelLaunch(const char* name)
      : span_(obs::TraceRecorder::kernel_spans_enabled() ? name : nullptr,
              "kernel") {
    KernelCounter::record(name);
  }
  KernelLaunch(const KernelLaunch&) = delete;
  KernelLaunch& operator=(const KernelLaunch&) = delete;

 private:
  obs::ScopedSpan span_;
};

/// RAII: enable counting, reset, and read the delta on destruction.
class KernelCountScope {
 public:
  KernelCountScope() : was_enabled_(KernelCounter::enabled()) {
    KernelCounter::enable(true);
    start_ = KernelCounter::total();
  }
  ~KernelCountScope() { KernelCounter::enable(was_enabled_); }
  KernelCountScope(const KernelCountScope&) = delete;
  KernelCountScope& operator=(const KernelCountScope&) = delete;

  i64 count() const { return KernelCounter::total() - start_; }

 private:
  bool was_enabled_;
  i64 start_ = 0;
};

}  // namespace fekf
