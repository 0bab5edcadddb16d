#include "tensor/dispatch.hpp"

#include <algorithm>

#include "core/env.hpp"
#include "core/log.hpp"

namespace fekf::dispatch {

const char* backend_name(Backend backend) {
  return backend == Backend::kScalar ? "scalar" : "auto";
}

namespace {

/// Detected features of the executing CPU (cached).
const CpuFeatures& detected_cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    // GCC/Clang builtin cpuid probes; safe on any x86 at runtime.
    f.avx2 = __builtin_cpu_supports("avx2");
    f.fma = __builtin_cpu_supports("fma");
#endif
    return f;
  }();
  return features;
}

bool isa_supported(const Variant& v, CpuFeatures features) {
  return v.isa != "avx2+fma" || (features.avx2 && features.fma);
}

}  // namespace

bool Registry::parse_backend(std::string_view text, Backend* out) {
  if (text.empty() || text == "auto") {
    *out = Backend::kAuto;
    return true;
  }
  if (text == "scalar") {
    *out = Backend::kScalar;
    return true;
  }
  return false;
}

Registry::Registry() : detected_(detected_cpu_features()) {
  if (const char* env = env::get("FEKF_KERNEL_BACKEND")) {
    if (!parse_backend(env, &backend_)) {
      // Unknown names degrade to auto — an env typo must not abort
      // training, and every variant auto can pick is bit-exact.
      FEKF_WARN << "FEKF_KERNEL_BACKEND='" << env
                << "' is not scalar|auto; using auto";
    }
  }
}

Registry& Registry::instance() {
  // Leaked intentionally: process lifetime. Deliberately does NOT run the
  // family registration hooks here: the hooks call back into instance(),
  // and running them inside this function's static initialization would
  // re-enter the init guard on the same thread (futex deadlock).
  // Registration is the consumers' job — every Dispatched handle runs its
  // family's hook in its constructor, and tests/benches call the hooks
  // explicitly before enumerating the registry.
  static Registry* registry = new Registry();
  return *registry;
}

void Registry::add(Variant v) {
  FEKF_CHECK(!v.kernel.empty() && !v.name.empty() && v.fn != nullptr,
             "dispatch variant registration needs kernel, name and fn");
  std::lock_guard<std::mutex> lock(mutex_);
  for (Variant& existing : variants_) {
    if (existing.kernel == v.kernel && existing.name == v.name) {
      existing = std::move(v);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      return;
    }
  }
  variants_.push_back(std::move(v));
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

bool Registry::supported(const Variant& v) const {
  return isa_supported(v, cpu_features());
}

Variant Registry::selected(const std::string& kernel) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const CpuFeatures features = features_override_.value_or(detected_);
  const Variant* best = nullptr;
  for (const Variant& v : variants_) {
    if (v.kernel != kernel) continue;
    const bool eligible = backend_ == Backend::kScalar
                              ? v.name == "scalar"
                              : isa_supported(v, features);
    if (eligible && (best == nullptr || v.priority > best->priority)) {
      best = &v;
    }
  }
  FEKF_CHECK(best != nullptr,
             "dispatch: no eligible variant for kernel '" + kernel +
                 "' (scalar must always be registered)");
  return *best;
}

const std::optional<Variant> Registry::find(const std::string& kernel,
                                            const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Variant& v : variants_) {
    if (v.kernel == kernel && v.name == name) return v;
  }
  return std::nullopt;
}

std::vector<Variant> Registry::variants(const std::string& kernel) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Variant> out;
  for (const Variant& v : variants_) {
    if (v.kernel == kernel) out.push_back(v);
  }
  std::sort(out.begin(), out.end(), [](const Variant& a, const Variant& b) {
    return a.priority < b.priority;
  });
  return out;
}

Backend Registry::backend() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backend_;
}

void Registry::set_backend(Backend backend) {
  std::lock_guard<std::mutex> lock(mutex_);
  backend_ = backend;
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

void Registry::set_cpu_features_for_test(
    std::optional<CpuFeatures> features) {
  std::lock_guard<std::mutex> lock(mutex_);
  features_override_ = features;
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

CpuFeatures Registry::cpu_features() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return features_override_.value_or(detected_);
}

}  // namespace fekf::dispatch
