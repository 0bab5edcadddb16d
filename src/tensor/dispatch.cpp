#include "tensor/dispatch.hpp"

#include <atomic>

#include "core/env.hpp"
#include "core/log.hpp"

namespace fekf::dispatch {

const char* backend_name(Backend backend) {
  return backend == Backend::kScalar ? "scalar" : "auto";
}

bool parse_backend(std::string_view text, Backend* out) {
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

namespace {

Backend backend_from_env() {
  Backend backend = Backend::kAuto;
  if (const char* env = env::get("FEKF_KERNEL_BACKEND")) {
    if (!parse_backend(env, &backend)) {
      // Unknown names degrade to auto — an env typo must not abort
      // training, and every variant auto can pick is bit-exact.
      FEKF_WARN << "FEKF_KERNEL_BACKEND='" << env
                << "' is not scalar|auto; using auto";
    }
  }
  return backend;
}

std::atomic<Backend>& backend_state() {
  static std::atomic<Backend> state{backend_from_env()};
  return state;
}

}  // namespace

Backend backend() { return backend_state().load(); }

void set_backend(Backend backend) { backend_state().store(backend); }

}  // namespace fekf::dispatch
