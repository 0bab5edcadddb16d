// DeePMD model configuration (paper §4 "Model parameters").
#pragma once

#include <vector>

#include "core/common.hpp"

namespace fekf::deepmd {

/// System-optimization levels of §3.4 / Figure 7:
///  kBaseline — framework-autograd style: per-atom composed descriptor ops,
///              separate matmul/bias/tanh launches.
///  kOpt1     — hand-written (fused batched) kernels for the
///              symmetry-preserving descriptor and its derivatives (Fig. 6).
///  kOpt2     — kOpt1 + fused linear and tanh-backward kernels
///              (torch.compile-style elementwise fusion).
/// The optimizer-side rungs (opt3's P-update kernel + Pg caching, and the
/// fused FEKF step) are orthogonal to the model: optim::EkfLevel.
enum class FusionLevel { kBaseline = 0, kOpt1 = 1, kOpt2 = 2 };

struct ModelConfig {
  f64 rcut = 6.0;       ///< descriptor cutoff (Å)
  f64 rcut_smth = 3.0;  ///< s(r) starts decaying here

  /// Max neighbors per neighbor-type (the env matrix row budget). Leave
  /// empty to size automatically from data (compute_env_stats).
  std::vector<i64> sel;

  i64 embed_width = 25;   ///< M: the paper's [25, 25, 25] embedding net
  i64 axis_neurons = 16;  ///< M^<: paper's "truncation value ... set 16"
  i64 fitting_width = 50; ///< d: paper's [400, 50, 50, 50, 1] fitting net

  FusionLevel fusion = FusionLevel::kOpt2;

  u64 init_seed = 20240302;
};

}  // namespace fekf::deepmd
