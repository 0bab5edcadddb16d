#include "optim/kalman.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace fekf::optim {

namespace {

bool finite(f64 v) { return std::isfinite(v); }

/// Running max with the health scan's NaN latching: a non-finite value
/// replaces the running max and sticks until the next non-finite one.
void latch_max(f64& acc, f64 v) {
  if (!std::isfinite(v)) {
    acc = v;
  } else if (std::isfinite(acc)) {
    acc = std::max(acc, v);
  }
}

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
  health_.resize(blocks_.size());
  reset();
  if (config_.level == EkfLevel::kFused) {
    pending_.k.resize(static_cast<std::size_t>(total_));
    pending_.a.resize(blocks_.size());
    pending_.scale.resize(blocks_.size());
    next_k_.resize(static_cast<std::size_t>(total_));
  } else {
    pg_.resize(static_cast<std::size_t>(max_block_));
  }
  if (config_.level == EkfLevel::kFramework) {
    scratch_.resize(static_cast<std::size_t>(max_block_ * max_block_));
  }
}

void KalmanOptimizer::reset() {
  pending_.active = false;
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
  pending_.active = false;
  state_.lambda = state.lambda;
  for (std::size_t b = 0; b < state_.p.size(); ++b) {
    unshare(b, /*keep=*/false);
    state_.p[b] = state.p[b];
  }
}

const KalmanState& KalmanOptimizer::state() {
  flush();
  return state_;
}

void KalmanOptimizer::flush() {
  if (!pending_.active) return;
  obs::ScopedSpan span("kalman.flush", "optim");
  for (std::size_t b = 0; b < blocks_.size(); ++b) sweep(b, {}, {});
  pending_.active = false;
}

f64 KalmanOptimizer::sweep(std::size_t b, std::span<const f64> g,
                           std::span<f64> y) {
  const i64 n = blocks_[b].size;
  if (!pending_.active) {
    return kernels::ekf_apply_gain(state_.p[b], {}, nullptr, g, y, n);
  }
  const kernels::EkfPendingStep step{
      std::span<const f64>(pending_.k)
          .subspan(static_cast<std::size_t>(blocks_[b].offset),
                   static_cast<std::size_t>(n)),
      pending_.a[b], pending_.lambda, config_.process_noise,
      pending_.scale[b]};
  // While the block still is the snapshot, the write reads it and goes to
  // the spare buffer, which then swaps in.
  const bool out_of_place = shared(b);
  const f64 gpg = kernels::ekf_apply_gain(
      state_.p[b], out_of_place ? spare_[b] : state_.p[b], &step, g, y, n);
  if (out_of_place) unshare(b, /*keep=*/false);
  return gpg;
}

void KalmanOptimizer::unshare(std::size_t b, bool keep) {
  if (!shared(b)) return;
  std::swap(spare_[b], state_.p[b]);
  if (keep) state_.p[b] = spare_[b];  // same size: no allocation
  shared_[b] = 0;
}

void KalmanOptimizer::snapshot() {
  if (spare_.empty()) {
    spare_.resize(state_.p.size());
    for (std::size_t b = 0; b < state_.p.size(); ++b) {
      spare_[b].resize(state_.p[b].size());
    }
  }
  shared_.assign(state_.p.size(), 1);
  snap_lambda_ = state_.lambda;
  snap_pending_ = pending_;
}

void KalmanOptimizer::rollback() {
  FEKF_CHECK(!shared_.empty(),
             "KalmanOptimizer::rollback without a snapshot");
  for (std::size_t b = 0; b < state_.p.size(); ++b) {
    if (shared_[b] == 0) {
      std::swap(spare_[b], state_.p[b]);
      shared_[b] = 1;
    }
  }
  state_.lambda = snap_lambda_;
  pending_ = snap_pending_;
}

void KalmanOptimizer::recondition() {
  flush();
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
  if (config_.level == EkfLevel::kFused) {
    update_fused(g, kscale, w, cap, abe);
  } else {
    update_eager(g, kscale, w, cap, abe);
  }
  state_.lambda = state_.lambda * config_.nu + 1.0 - config_.nu;
  finish_update();
}

f64 KalmanOptimizer::step_scale(f64 kscale, f64 a, f64 gpg, f64 abe, f64 cap,
                                std::span<const f64> q, BlockHealth& health) {
  // Step scale for w_b += kscale * K = kscale * a * q, clamped to full
  // Newton closure and clipped to the trust region. Depends only on
  // (q, gpg), so it is resolved before the P update any level takes.
  f64 scale = kscale * a;
  if (abe >= 0.0 && gpg > 1e-30 && abe / gpg < scale) {
    scale = abe / gpg;
    health.newton_clamped = true;
  }
  if (cap > 0.0) {
    f64 k_norm2 = 0.0;
    for (const f64 v : q) k_norm2 += v * v;
    const f64 step_norm = std::abs(scale) * std::sqrt(k_norm2);
    if (step_norm > cap) {
      scale *= cap / step_norm;
      health.step_clamped = true;
    }
  }
  return scale;
}

void KalmanOptimizer::update_fused(std::span<const f64> g, f64 kscale,
                                   std::span<f64> w, f64 cap, f64 abe) {
  // One sweep of P per block (DESIGN.md §12): the kernel writes the step
  // the previous update left pending and forms q = P g in the same pass.
  // This update's own step is resolved eagerly — weights, the p_max
  // decision and the health probe over its diagonal — and left pending in
  // turn. Blocks are independent and each sweep is serial, so blocks run
  // in parallel; everything a block writes is its own.
  const f64 lambda = state_.lambda;
  parallel_for(
      0, static_cast<i64>(blocks_.size()),
      [&](i64 bi) {
        const auto b = static_cast<std::size_t>(bi);
        const i64 n = blocks_[b].size;
        const auto off = static_cast<std::size_t>(blocks_[b].offset);
        const auto len = static_cast<std::size_t>(n);
        const std::span<const f64> gb = g.subspan(off, len);
        const std::span<f64> q(next_k_.data() + off, len);
        BlockHealth& health = health_[b];
        health = BlockHealth{};
        health.gpg = sweep(b, gb, q);
        const f64 a = 1.0 / (lambda + health.gpg);
        const f64 s = step_scale(kscale, a, health.gpg, abe, cap, q, health);
        const kernels::EkfPendingStep next{q, a, lambda,
                                           config_.process_noise};
        health.max_diag = kernels::ekf_commit_step(
            state_.p[b], next, s, w.subspan(off, len), n);
        f64 scale = 1.0;
        if (config_.p_max > 0.0 && std::isfinite(health.max_diag) &&
            health.max_diag > config_.p_max) {
          scale = config_.p_max / health.max_diag;
          health.rescaled = true;
        }
        pending_.a[b] = a;
        pending_.scale[b] = scale;
      },
      1);
  std::swap(pending_.k, next_k_);
  pending_.lambda = lambda;
  pending_.active = true;
}

void KalmanOptimizer::update_eager(std::span<const f64> g, f64 kscale,
                                   std::span<f64> w, f64 cap, f64 abe) {
  const EkfLevel level = config_.level;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const i64 n = blocks_[b].size;
    const i64 off = blocks_[b].offset;
    std::span<const f64> gb = g.subspan(static_cast<std::size_t>(off),
                                        static_cast<std::size_t>(n));
    std::span<const f64> pb(state_.p[b]);
    std::span<f64> q(pg_.data(), static_cast<std::size_t>(n));
    BlockHealth& health = health_[b];
    health = BlockHealth{};

    kernels::symv(pb, gb, q, n);  // q = P g
    const f64 gpg = kernels::dot(gb, q);
    health.gpg = gpg;
    const f64 a = 1.0 / (state_.lambda + gpg);

    // K = a q; kFramework recomputes P g for K the way a naive graph
    // would, costing a second symv (opt3 removes it).
    if (level == EkfLevel::kFramework) kernels::symv(pb, gb, q, n);

    const f64 s = step_scale(kscale, a, gpg, abe, cap, q, health);

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

    kernels::axpy(s, q,
                  w.subspan(static_cast<std::size_t>(off), std::size_t(n)));

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
    f64 max_diag = 0.0;
    for (i64 i = 0; i < n; ++i) {
      const f64 d = pw[static_cast<std::size_t>(kernels::packed_row(i, n))];
      if (!std::isfinite(d)) {
        max_diag = d;
        break;
      }
      max_diag = std::max(max_diag, d);
    }
    health.max_diag = max_diag;
    if (config_.p_max > 0.0 && std::isfinite(max_diag) &&
        max_diag > config_.p_max) {
      health.rescaled = true;
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
}

void KalmanOptimizer::finish_update() {
  f64 max_diag = 0.0;
  for (const BlockHealth& h : health_) latch_max(max_diag, h.max_diag);
  last_max_diag_ = max_diag;
  if (!obs::metrics_enabled()) return;
  f64 gpg_max = 0.0;
  i64 rescales = 0, step_clamps = 0, newton_clamps = 0;
  for (const BlockHealth& h : health_) {
    latch_max(gpg_max, h.gpg);
    rescales += h.rescaled;
    step_clamps += h.step_clamped;
    newton_clamps += h.newton_clamped;
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  static obs::Gauge& lambda_gauge = metrics.gauge("kalman.lambda");
  static obs::Gauge& max_diag_gauge = metrics.gauge("kalman.max_diag");
  static obs::Gauge& gpg_gauge = metrics.gauge("kalman.gpg_max");
  static obs::Counter& rescale_count = metrics.counter("kalman.p_rescales");
  static obs::Counter& step_count = metrics.counter("kalman.step_clamps");
  static obs::Counter& newton_count = metrics.counter("kalman.newton_clamps");
  lambda_gauge.set(state_.lambda);
  max_diag_gauge.set(max_diag);
  gpg_gauge.set(gpg_max);
  rescale_count.inc(rescales);
  step_count.inc(step_clamps);
  newton_count.inc(newton_clamps);
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
