// Compile-time kernel variant tables (DESIGN.md §13).
//
// Each hot kernel family has one fixed table of typed VARIANTS of its
// inner body (tensor/variants/variants.hpp): the scalar reference first,
// then every variant this build compiled, in order of preference. Which
// variants exist is decided when the code is compiled — an `avx2+fma`
// body is built only under `-march=native` on a host with AVX2 and FMA,
// and a binary built that way cannot start on a CPU without them — so
// the last entry is the fastest body the binary can run, and no runtime
// CPU detection is needed.
//
// The contract (DESIGN.md §13): every variant reproduces its family's
// scalar reference bit for bit — same per-element operation sequence,
// same accumulation order, same FMA-contraction shape — asserted with
// memcmp in tests/test_dispatch.cpp. Kernel choice changes speed, never
// numerics.
//
// Selection policy (FEKF_KERNEL_BACKEND, or set_backend()):
//   * auto (default): the last entry of each table.
//   * scalar: the first entry, the reference body, everywhere.
//
// Variants are width-agnostic: each is a per-panel body invoked from the
// same parallel_for partitions as before, so the §9 determinism model
// (bit-identical results at any thread width) holds PER VARIANT.
#pragma once

#include <span>
#include <string_view>

namespace fekf::dispatch {

/// Values of FEKF_KERNEL_BACKEND.
enum class Backend { kAuto, kScalar };

const char* backend_name(Backend backend);

/// Parses a FEKF_KERNEL_BACKEND value: "scalar", or "auto"/"" for auto;
/// returns false for anything else.
bool parse_backend(std::string_view text, Backend* out);

/// The process-wide backend: FEKF_KERNEL_BACKEND on first use (an unknown
/// value warns and means auto), or the last set_backend().
Backend backend();
void set_backend(Backend backend);

/// The ISA every non-generic variant of this build needs: "avx2+fma" when
/// the compiler targeted it, else "generic".
#if defined(__AVX2__) && defined(__FMA__)
inline constexpr const char* kCompiledIsa = "avx2+fma";
#else
inline constexpr const char* kCompiledIsa = "generic";
#endif

/// One entry of a family table.
template <typename Fn>
struct Variant {
  const char* name;  ///< e.g. "scalar", "avx2"
  const char* isa;   ///< "generic" or kCompiledIsa
  Fn fn;
};

/// The entry the backend selects: the scalar reference (first) under
/// `scalar`, the preferred compiled variant (last) under `auto`.
template <typename Fn>
const Variant<Fn>& select(std::span<const Variant<Fn>> table) {
  return backend() == Backend::kScalar ? table.front() : table.back();
}

}  // namespace fekf::dispatch
