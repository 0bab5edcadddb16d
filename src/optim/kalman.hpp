// Block-diagonal Extended-Kalman-Filter optimizer state (Algorithm 1).
//
// One KalmanOptimizer instance holds the block-diagonal weights-error
// covariance P = diag(P_1 .. P_L) plus the memory factor lambda, and
// performs the scalar-measurement EKF update per block:
//
//   a   = 1 / (lambda + g^T P g)
//   K   = a P g
//   P  <- (P - (1/a) K K^T) / lambda, symmetrized     (Alg. 1 lines 8-11)
//   lambda <- lambda nu + 1 - nu                      (line 12)
//   w  <- w + kscale * K,  kscale = sqrt(bs) * ABE    (line 13)
//
// P stays exactly symmetric through every path (reset, the update, the
// diagonal noise, the p_max rescale, recondition), so each block is stored
// as its packed upper triangle, half the bytes of the dense block.
//
// Both RLEKF (batch 1, instance-by-instance) and FEKF (reduced gradient /
// error) drive this same state; they differ only in how the trainer builds
// (g, ABE). The optimizer rungs of the Figure 7 ladder are one EkfLevel.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "optim/ekf_blocks.hpp"

namespace fekf::optim {

/// Optimizer-side rungs of the Figure 7 ladder (the model side is
/// deepmd::FusionLevel); each is one path through KalmanOptimizer::update.
///  kFramework — P g recomputed for K by a second symv, and a three-launch
///               P update that materializes K K^T in n^2 scratch: 7
///               launches per block; agrees with the others to rounding.
///  kOpt3      — paper opt3: cached P g and the single-pass P kernel
///               (symv, dot, p_update_fused, axpy): 4 launches per block.
///  kFused     — whole-step fusion (DESIGN.md §12): each update leaves its
///               P step pending, and the next one's ekf_apply_gain writes it
///               while forming P g, one launch and one sweep of P per
///               block, blocks in parallel; bit-exact with kOpt3.
enum class EkfLevel { kFramework, kOpt3, kFused };

struct KalmanConfig {
  i64 blocksize = 10240;
  f64 lambda0 = 0.98;  ///< paper defaults; use 0.90/0.996 for batch > 1024
  f64 nu = 0.9987;
  EkfLevel level = EkfLevel::kFused;

  /// Initial covariance diagonal: P starts as p_init * I, and the
  /// divergence-recovery path (recondition()) rescales an unhealthy P back
  /// toward this level. Must be positive and finite.
  f64 p_init = 1.0;

  /// Covariance limiting: the forgetting factor (the 1/lambda in the P
  /// update) inflates P exponentially along directions the scalar
  /// measurements never excite; once a gradient finally points there the
  /// Kalman gain explodes. Classic RLS wind-up — invisible at the paper's
  /// scale (tens of thousands of diverse updates keep all directions
  /// excited) but fatal for short runs. When a block's max diagonal
  /// exceeds p_max the whole block is rescaled (preserves positive
  /// definiteness). <= 0 disables.
  f64 p_max = 100.0;

  /// Additive process noise: P <- P + q I after each update. The paper's
  /// stochastic model (§2.2) includes process noise through the
  /// lambda^{-1/2} weight dynamics; the multiplicative 1/lambda term
  /// vanishes as lambda -> 1, which lets P collapse along the repeatedly
  /// measured (extensive) energy direction while force updates keep
  /// perturbing the weights. A small additive floor keeps the filter
  /// responsive. 0 disables.
  f64 process_noise = 1e-2;

  /// Trust region: per-block weight-step norm cap. Occasional large Kalman
  /// gains (right after a covariance rescale, or when a gradient first
  /// excites an inflated direction) otherwise throw the extensive energy
  /// fit off by tens of eV. <= 0 disables.
  f64 max_step_norm = 0.1;

  /// Paper §3.2 large-batch recommendation.
  static KalmanConfig for_batch_size(i64 batch_size) {
    KalmanConfig cfg;
    if (batch_size > 1024) {
      cfg.lambda0 = 0.90;
      cfg.nu = 0.996;
    }
    return cfg;
  }

  /// Reject unusable configurations with a clear Error naming the field
  /// and the offending value. Called by every optimizer constructor.
  void validate() const;
};

/// The stability-critical optimizer state (RLEKF: "the EKF covariance P is
/// the stability-critical state"). KalmanOptimizer keeps its live filter in
/// one; copies of it are the on-disk training checkpoints (the in-memory
/// sentinel snapshot is KalmanOptimizer::snapshot(), which copies nothing).
struct KalmanState {
  f64 lambda = 0.0;
  /// Per-block covariance, each block its packed upper triangle
  /// (kernels::packed_row): n(n+1)/2 entries for an n-parameter block.
  std::vector<std::vector<f64>> p;
};

class KalmanOptimizer {
 public:
  KalmanOptimizer(std::vector<BlockSpec> blocks, KalmanConfig config);

  /// One EKF update over all blocks. `g` is the flattened measurement
  /// gradient (size = total parameter count), `kscale` the weight-step
  /// scale (sqrt(bs) * ABE, already signed if needed); `w` is updated
  /// in place. `step_norm_cap` overrides config().max_step_norm for this
  /// update (energy updates are well-posed scalar Newton steps and run
  /// uncapped; the noisier force updates use the trust region): nullopt
  /// keeps the config value, a value <= 0 disables the cap for this update.
  /// `abe` (when >= 0) enables Newton-closure clamping: the sqrt(bs)
  /// factor in kscale can overshoot the full scalar-measurement closure
  /// when g^T P g is large and batch gradients are sign-correlated (early
  /// training), so the per-block step is clamped to the step that would
  /// exactly close the measurement error abe. Inactive at batch size 1,
  /// where kscale*a <= abe/(g^T P g) always holds.
  void update(std::span<const f64> g, f64 kscale, std::span<f64> w,
              std::optional<f64> step_norm_cap = std::nullopt,
              f64 abe = -1.0);

  f64 lambda() const { return state_.lambda; }
  const std::vector<BlockSpec>& blocks() const { return blocks_; }
  i64 total_size() const { return total_; }

  /// The live filter state (lambda + every P block); the next update()
  /// changes it, so callers that keep it copy it. At kFused it first
  /// writes the P step the last update left pending (one ekf_apply_gain
  /// per block, under a kalman.flush span). set_state validates block
  /// shapes against this optimizer's layout, copies into the existing
  /// storage and drops any pending step.
  const KalmanState& state();
  void set_state(const KalmanState& state);

  /// Sentinel snapshot by ping-pong, with no copy of P. snapshot() marks
  /// the live buffers (and lambda, and at kFused the pending step, whose
  /// k is total_size() doubles) as the snapshot. The first P write of each
  /// block after it reads the live buffer and writes a spare one
  /// (allocated at the first snapshot), then the two swap, so the snapshot
  /// is left untouched and later writes run in place. Paths that write in
  /// place while a block still is the snapshot — set_state, recondition,
  /// reset and the kOpt3/kFramework P updates — swap first and copy the
  /// snapshot into the new live buffer if they read it (copy-on-write).
  /// Either way the snapshot stays in the buffer it was taken in.
  /// rollback() swaps every diverged block back and restores lambda and
  /// the pending step; the snapshot stays valid, so a second rollback
  /// restores the same state. P memory is two packed copies at most.
  void snapshot();
  void rollback();

  /// Largest covariance diagonal seen during the most recent update() —
  /// the sentinel's P-health signal. NaN/Inf here means the filter has
  /// diverged. Costs one diagonal scan per block, which update() performs
  /// anyway for covariance limiting (at kFused, over the pending step).
  f64 last_max_diag() const { return last_max_diag_; }

  /// Divergence recovery, after writing any pending step (under a
  /// kalman.flush span): any block containing a non-finite entry is reset
  /// to p_init * I; any block whose max diagonal exceeds p_init is rescaled
  /// down to it (same positive-definiteness-preserving whole-block rescale
  /// as the p_max limiter). A non-finite lambda resets to lambda0.
  void recondition();

  /// Persistent P storage in bytes (the paper's Section 5.3 accounting):
  /// the packed upper triangles, n(n+1)/2 entries of 8 bytes per block.
  /// The snapshot's spare buffers are not counted.
  i64 p_bytes() const;
  /// Scratch bytes the configured level needs per update (kFramework
  /// materializes K K^T for the largest block).
  i64 scratch_bytes() const;
  /// p_bytes + scratch: the peak resident footprint model of §5.3.
  i64 peak_bytes() const { return p_bytes() + scratch_bytes(); }

  /// Reset P to p_init * I and lambda to lambda0, dropping any pending
  /// step.
  void reset();

 private:
  /// kFused: the P step of the last update, written by the next one
  /// (DESIGN.md §12). Block b's step is kernels::EkfPendingStep{k at
  /// blocks_[b].offset, a[b], lambda, process_noise, scale[b]}.
  struct Pending {
    bool active = false;
    f64 lambda = 0.0;
    std::vector<f64> k;      ///< P g per block, total_ entries
    std::vector<f64> a;      ///< per block
    std::vector<f64> scale;  ///< per block, p_max rescale (1 if none)
  };
  /// What one block's update saw, gathered per block (blocks may run in
  /// parallel) and turned into kalman.* metrics after the loop.
  struct BlockHealth {
    f64 gpg = 0.0;
    f64 max_diag = 0.0;
    bool rescaled = false;
    bool step_clamped = false;
    bool newton_clamped = false;
  };

  void update_fused(std::span<const f64> g, f64 kscale, std::span<f64> w,
                    f64 cap, f64 abe);
  void update_eager(std::span<const f64> g, f64 kscale, std::span<f64> w,
                    f64 cap, f64 abe);
  /// Write the pending step into P, if any (kFused).
  void flush();
  /// Block b's ekf_apply_gain: y = P g (an empty g skips it), writing the
  /// pending step into P first if there is one; returns g^T y.
  f64 sweep(std::size_t b, std::span<const f64> g, std::span<f64> y);
  /// The step-scale clamps every level applies to w_b += s * a * q: the
  /// Newton closure and the trust region (see update()).
  static f64 step_scale(f64 kscale, f64 a, f64 gpg, f64 abe, f64 cap,
                        std::span<const f64> q, BlockHealth& health);
  /// Combine the per-block health in block order into last_max_diag_ and
  /// the kalman.* metrics.
  void finish_update();

  /// Copy-on-write for an in-place writer of block b: if the live buffer
  /// still is the snapshot, swap it out to the spare slot, and copy it
  /// into the new live buffer when the writer reads the live contents
  /// (`keep`) rather than overwriting them all.
  void unshare(std::size_t b, bool keep);
  /// True while block b's live buffer is the snapshot.
  bool shared(std::size_t b) const {
    return !shared_.empty() && shared_[b] != 0;
  }

  std::vector<BlockSpec> blocks_;
  KalmanConfig config_;
  KalmanState state_;
  std::vector<std::vector<f64>> spare_;  ///< ping-pong partner per block
  /// Per block: the live buffer is the snapshot. Empty until the first
  /// snapshot(). Bytes, not vector<bool>: blocks update in parallel.
  std::vector<char> shared_;
  f64 snap_lambda_ = 0.0;
  Pending pending_, snap_pending_;
  std::vector<f64> next_k_;  ///< kFused: this update's P g, total_ entries
  std::vector<BlockHealth> health_;
  f64 last_max_diag_ = 0.0;
  i64 total_ = 0;
  i64 max_block_ = 0;
  std::vector<f64> pg_;       ///< kOpt3/kFramework: P g (max block size)
  std::vector<f64> scratch_;  ///< kFramework: K K^T materialization
};

}  // namespace fekf::optim
