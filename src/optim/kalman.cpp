#include "optim/kalman.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace fekf::optim {

namespace {

bool finite(f64 v) { return std::isfinite(v); }

}  // namespace

void KalmanConfig::validate() const {
  FEKF_CHECK(blocksize > 0, "KalmanConfig.blocksize must be positive, got " +
                                std::to_string(blocksize));
  FEKF_CHECK(finite(lambda0) && lambda0 > 0.0 && lambda0 <= 1.0,
             "KalmanConfig.lambda0 must be in (0, 1], got " +
                 std::to_string(lambda0));
  FEKF_CHECK(finite(nu) && nu > 0.0 && nu <= 1.0,
             "KalmanConfig.nu must be in (0, 1], got " + std::to_string(nu));
  FEKF_CHECK(finite(p_init) && p_init > 0.0,
             "KalmanConfig.p_init must be positive and finite, got " +
                 std::to_string(p_init));
  FEKF_CHECK(finite(p_max), "KalmanConfig.p_max must be finite (<= 0 "
                            "disables), got " + std::to_string(p_max));
  FEKF_CHECK(finite(process_noise) && process_noise >= 0.0,
             "KalmanConfig.process_noise must be >= 0 and finite, got " +
                 std::to_string(process_noise));
  FEKF_CHECK(finite(max_step_norm),
             "KalmanConfig.max_step_norm must be finite (<= 0 disables), "
             "got " + std::to_string(max_step_norm));
  FEKF_CHECK(p_max <= 0.0 || p_max >= p_init,
             "KalmanConfig.p_max (" + std::to_string(p_max) +
                 ") must be >= p_init (" + std::to_string(p_init) + ")");
}

KalmanOptimizer::KalmanOptimizer(std::vector<BlockSpec> blocks,
                                 KalmanConfig config)
    : blocks_(std::move(blocks)), config_(config) {
  config_.validate();
  FEKF_CHECK(!blocks_.empty(), "no parameter blocks");
  for (const BlockSpec& b : blocks_) {
    FEKF_CHECK(b.offset == total_, "blocks must tile the parameter vector");
    total_ += b.size;
    max_block_ = std::max(max_block_, b.size);
  }
  state_.p.resize(blocks_.size());
  reset();
  pg_.resize(static_cast<std::size_t>(max_block_));
  if (config_.level == EkfLevel::kFramework) {
    scratch_.resize(static_cast<std::size_t>(max_block_ * max_block_));
  }
}

void KalmanOptimizer::reset() {
  state_.lambda = config_.lambda0;
  last_max_diag_ = config_.p_init;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const i64 n = blocks_[b].size;
    unshare(b, /*keep=*/false);
    state_.p[b].assign(static_cast<std::size_t>(kernels::packed_size(n)),
                       0.0);
    for (i64 i = 0; i < n; ++i) {
      state_.p[b][static_cast<std::size_t>(kernels::packed_row(i, n))] =
          config_.p_init;
    }
  }
}

void KalmanOptimizer::set_state(const KalmanState& state) {
  FEKF_CHECK(state.p.size() == state_.p.size(),
             "KalmanState has " + std::to_string(state.p.size()) +
                 " blocks, optimizer has " + std::to_string(state_.p.size()));
  for (std::size_t b = 0; b < state_.p.size(); ++b) {
    FEKF_CHECK(state.p[b].size() == state_.p[b].size(),
               "KalmanState block " + std::to_string(b) + " has " +
                   std::to_string(state.p[b].size()) + " entries, expected " +
                   std::to_string(state_.p[b].size()));
  }
  state_.lambda = state.lambda;
  for (std::size_t b = 0; b < state_.p.size(); ++b) {
    unshare(b, /*keep=*/false);
    state_.p[b] = state.p[b];
  }
}

void KalmanOptimizer::unshare(std::size_t b, bool keep) {
  if (!shared(b)) return;
  std::swap(spare_[b], state_.p[b]);
  if (keep) state_.p[b] = spare_[b];  // same size: no allocation
  shared_[b] = false;
}

void KalmanOptimizer::snapshot() {
  if (spare_.empty()) {
    spare_.resize(state_.p.size());
    for (std::size_t b = 0; b < state_.p.size(); ++b) {
      spare_[b].resize(state_.p[b].size());
    }
  }
  shared_.assign(state_.p.size(), true);
  snap_lambda_ = state_.lambda;
}

void KalmanOptimizer::rollback() {
  FEKF_CHECK(!shared_.empty(),
             "KalmanOptimizer::rollback without a snapshot");
  for (std::size_t b = 0; b < state_.p.size(); ++b) {
    if (!shared_[b]) {
      std::swap(spare_[b], state_.p[b]);
      shared_[b] = true;
    }
  }
  state_.lambda = snap_lambda_;
}

void KalmanOptimizer::recondition() {
  f64& lambda = state_.lambda;
  if (!std::isfinite(lambda) || lambda <= 0.0) lambda = config_.lambda0;
  f64 max_diag_after = 0.0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const i64 n = blocks_[b].size;
    const std::vector<f64>& pb = state_.p[b];
    bool healthy = true;
    for (const f64 v : pb) {
      if (!std::isfinite(v)) {
        healthy = false;
        break;
      }
    }
    if (!healthy) {
      // The block's covariance is meaningless: restart it at p_init * I.
      unshare(b, /*keep=*/false);
      std::vector<f64>& out = state_.p[b];
      std::fill(out.begin(), out.end(), 0.0);
      for (i64 i = 0; i < n; ++i) {
        out[static_cast<std::size_t>(kernels::packed_row(i, n))] =
            config_.p_init;
      }
      max_diag_after = std::max(max_diag_after, config_.p_init);
      continue;
    }
    f64 max_diag = 0.0;
    for (i64 i = 0; i < n; ++i) {
      max_diag = std::max(
          max_diag, pb[static_cast<std::size_t>(kernels::packed_row(i, n))]);
    }
    if (max_diag > config_.p_init) {
      const f64 scale = config_.p_init / max_diag;
      unshare(b, /*keep=*/true);
      for (f64& v : state_.p[b]) v *= scale;
      max_diag = config_.p_init;
    }
    max_diag_after = std::max(max_diag_after, max_diag);
  }
  last_max_diag_ = max_diag_after;
}

void KalmanOptimizer::update(std::span<const f64> g, f64 kscale,
                             std::span<f64> w,
                             std::optional<f64> step_norm_cap, f64 abe) {
  obs::ScopedSpan span("kalman.update", "optim");
  span.arg("blocks", static_cast<f64>(blocks_.size()));
  span.arg("abe", abe);
  const f64 cap = step_norm_cap.value_or(config_.max_step_norm);
  FEKF_CHECK(static_cast<i64>(g.size()) == total_ &&
                 static_cast<i64>(w.size()) == total_,
             "gradient/weight size mismatch");
  const EkfLevel level = config_.level;
  f64 update_max_diag = 0.0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const i64 n = blocks_[b].size;
    const i64 off = blocks_[b].offset;
    std::span<const f64> gb = g.subspan(static_cast<std::size_t>(off),
                                        static_cast<std::size_t>(n));
    std::span<const f64> pb(state_.p[b]);
    std::span<f64> q(pg_.data(), static_cast<std::size_t>(n));

    f64 gpg;
    if (level == EkfLevel::kFused) {
      gpg = kernels::ekf_gain_fused(pb, gb, q, n);  // q = P g, one launch
    } else {
      kernels::symv(pb, gb, q, n);  // q = P g
      gpg = kernels::dot(gb, q);
    }
    const f64 a = 1.0 / (state_.lambda + gpg);

    // K = a q; kFramework recomputes P g for K the way a naive graph
    // would, costing a second symv (opt3 removes it).
    if (level == EkfLevel::kFramework) kernels::symv(pb, gb, q, n);

    // Step scale for w_b += kscale * K = kscale * a * q, clamped to full
    // Newton closure and clipped to the trust region. Depends only on
    // (q, gpg), so it is resolved before the P update any level takes.
    f64 step_scale = kscale * a;
    if (abe >= 0.0 && gpg > 1e-30) {
      step_scale = std::min(step_scale, abe / gpg);
    }
    if (cap > 0.0) {
      f64 k_norm2 = 0.0;
      for (const f64 v : q) k_norm2 += v * v;
      const f64 step_norm = std::abs(step_scale) * std::sqrt(k_norm2);
      if (step_norm > cap) {
        step_scale *= cap / step_norm;
      }
    }

    f64 max_diag = 0.0;
    if (level == EkfLevel::kFused) {
      // P update + process noise + weight step + NaN-latching health scan
      // in one launch; bit-exact with the sequence below. While the block
      // still is the snapshot, the update reads it and writes the spare
      // buffer, which then swaps in: the snapshot is never copied.
      const bool out_of_place = shared(b);
      max_diag = kernels::ekf_apply_fused(
          pb, out_of_place ? std::span<f64>(spare_[b]) : state_.p[b], q, a,
          state_.lambda, step_scale,
          w.subspan(static_cast<std::size_t>(off), std::size_t(n)),
          config_.process_noise, n);
      if (out_of_place) unshare(b, /*keep=*/false);
    } else {
      unshare(b, /*keep=*/true);
      std::span<f64> pw(state_.p[b]);
      // P <- (P - a q q^T) / lambda, symmetrized. Note (1/a) K K^T with
      // K = a P g equals a (P g)(P g)^T, so the kernels take q and a.
      if (level == EkfLevel::kOpt3) {
        kernels::p_update_fused(pw, q, a, state_.lambda, n);
      } else {
        kernels::p_update_unfused(pw, q, a, state_.lambda,
                                  std::span<f64>(scratch_), n);
      }

      kernels::axpy(step_scale, q,
                    w.subspan(static_cast<std::size_t>(off),
                              std::size_t(n)));

      // Process-noise floor (see KalmanConfig::process_noise).
      if (config_.process_noise > 0.0) {
        for (i64 i = 0; i < n; ++i) {
          pw[static_cast<std::size_t>(kernels::packed_row(i, n))] +=
              config_.process_noise;
        }
      }

      // Covariance limiting (see KalmanConfig::p_max). The diagonal scan
      // doubles as the sentinels' P-health probe, so non-finite entries
      // must latch into max_diag explicitly (std::max would silently drop
      // a NaN).
      for (i64 i = 0; i < n; ++i) {
        const f64 d = pw[static_cast<std::size_t>(kernels::packed_row(i, n))];
        if (!std::isfinite(d)) {
          max_diag = d;
          break;
        }
        max_diag = std::max(max_diag, d);
      }
    }
    if (!std::isfinite(max_diag)) {
      update_max_diag = max_diag;
    } else if (std::isfinite(update_max_diag)) {
      update_max_diag = std::max(update_max_diag, max_diag);
    }
    if (config_.p_max > 0.0 && std::isfinite(max_diag) &&
        max_diag > config_.p_max) {
      const f64 scale = config_.p_max / max_diag;
      f64* pd = state_.p[b].data();
      parallel_for_blocks(
          0, kernels::packed_size(n),
          [&](i64 lo, i64 hi) {
            for (i64 i = lo; i < hi; ++i) pd[i] *= scale;
          },
          kGrainWork);
    }
  }
  last_max_diag_ = update_max_diag;
  state_.lambda = state_.lambda * config_.nu + 1.0 - config_.nu;
}

i64 KalmanOptimizer::p_bytes() const {
  i64 bytes = 0;
  for (const BlockSpec& b : blocks_) {
    bytes += kernels::packed_size(b.size) * static_cast<i64>(sizeof(f64));
  }
  return bytes;
}

i64 KalmanOptimizer::scratch_bytes() const {
  return static_cast<i64>(scratch_.size() * sizeof(f64));
}

}  // namespace fekf::optim
