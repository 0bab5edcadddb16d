// Runtime kernel-dispatch registry (DESIGN.md §13).
//
// Each hot kernel registers named VARIANTS of its inner body — the scalar
// reference, `#pragma omp simd`-style vectorized bodies, AVX2/FMA
// intrinsics — and the registry picks one per kernel at startup from CPU
// feature detection, overridable with FEKF_KERNEL_BACKEND (scalar | auto)
// or programmatically via set_backend(). In the spirit of MFEM's
// kernel_dispatch.hpp.
//
// The contract (DESIGN.md §13): every registered variant reproduces its
// family's scalar reference bit for bit — same per-element operation
// sequence, same accumulation order, same FMA-contraction shape — asserted
// with memcmp in tests/test_dispatch.cpp. Kernel choice changes speed,
// never numerics. A variant is registered only if `auto` selects it on
// some supported ISA, or if it is the scalar reference.
//
// Selection policy:
//   * auto (default): the highest-priority variant whose ISA this CPU
//     supports.
//   * scalar: the reference body everywhere.
// The scalar variant is always registered and always eligible, so
// resolution cannot fail.
//
// Variants are width-agnostic: each is a per-panel body invoked from the
// same parallel_for partitions as before, so the §9 determinism model
// (bit-identical results at any thread width) holds PER VARIANT.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace fekf::dispatch {

/// Values of FEKF_KERNEL_BACKEND.
enum class Backend { kAuto, kScalar };

const char* backend_name(Backend backend);

/// CPU features relevant to the registered variants, detected once at
/// startup (x86 cpuid via compiler builtins; all-false elsewhere).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// One registered kernel variant. `fn` is the variant body, cast to the
/// kernel family's function-pointer type by the typed accessors in
/// variants.hpp — the kernel name keys the type by convention.
struct Variant {
  std::string kernel;     ///< family name, e.g. "gemm_f32"
  std::string name;       ///< variant name, e.g. "avx2"
  std::string isa;        ///< "generic" or the ISA requirement ("avx2+fma")
  int priority = 0;       ///< among eligible variants, highest wins
  void* fn = nullptr;
  std::string note;       ///< one-line contract rationale (docs/KERNELS.md)
};

class Registry {
 public:
  /// The process-wide registry. Reads FEKF_KERNEL_BACKEND on first use;
  /// families register through their hooks (see instance() in the .cpp).
  static Registry& instance();

  /// Registers a variant. Later registrations of the same (kernel, name)
  /// pair replace the earlier one (test hooks use this).
  void add(Variant v);

  /// The variant the current policy selects for `kernel`. Never fails for
  /// a registered kernel: the scalar variant is always eligible.
  Variant selected(const std::string& kernel) const;

  /// Introspection for tests, benches and the docs drift check.
  const std::optional<Variant> find(const std::string& kernel,
                                    const std::string& name) const;
  std::vector<Variant> variants(const std::string& kernel) const;

  /// True when this CPU (or the injected test features) supports `v.isa`.
  bool supported(const Variant& v) const;

  Backend backend() const;
  /// Sets the backend. Bumps the generation so cached Dispatched handles
  /// re-resolve.
  void set_backend(Backend backend);

  /// Features used for eligibility. Tests inject a feature set (e.g. a
  /// CPU without AVX2) to exercise the graceful-fallback path; nullopt
  /// restores the detected features. Bumps the generation.
  void set_cpu_features_for_test(std::optional<CpuFeatures> features);
  CpuFeatures cpu_features() const;

  /// Monotonic counter bumped by any selection-relevant change.
  u64 generation() const { return generation_.load(std::memory_order_acquire); }

  /// Parses a FEKF_KERNEL_BACKEND value: "scalar", or "auto"/"" for
  /// auto; returns false for anything else.
  static bool parse_backend(std::string_view text, Backend* out);

 private:
  Registry();

  mutable std::mutex mutex_;
  std::vector<Variant> variants_;
  Backend backend_ = Backend::kAuto;
  CpuFeatures detected_;
  std::optional<CpuFeatures> features_override_;
  std::atomic<u64> generation_{1};
};

/// Typed, cached resolution handle. Constructing one runs the family's
/// registration hook (idempotent); get() re-resolves only when the
/// registry generation moved (backend override, feature injection), so the
/// steady-state cost is one atomic load. Resolution happens on the calling
/// thread BEFORE the kernel enters a parallel region.
template <typename FnPtr>
class Dispatched {
 public:
  Dispatched(const char* kernel, void (*ensure_registered)())
      : kernel_(kernel) {
    ensure_registered();
  }

  FnPtr get() const {
    const u64 gen = Registry::instance().generation();
    if (gen != cached_generation_.load(std::memory_order_acquire)) {
      cached_fn_.store(
          reinterpret_cast<FnPtr>(Registry::instance().selected(kernel_).fn),
          std::memory_order_release);
      cached_generation_.store(gen, std::memory_order_release);
    }
    return cached_fn_.load(std::memory_order_acquire);
  }

 private:
  const char* kernel_;
  mutable std::atomic<u64> cached_generation_{0};
  mutable std::atomic<FnPtr> cached_fn_{nullptr};
};

}  // namespace fekf::dispatch
