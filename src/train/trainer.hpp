// Training loops.
//
//  * AdamTrainer  — the paper's baseline: DeePMD loss (energy + force terms
//    with the standard prefactor schedule), any mini-batch size, lr scaled
//    by sqrt(bs) as in Table 1.
//  * KalmanTrainer — the EKF family. One step = 1 energy update + 4 force
//    updates (paper §4). Modes:
//      EkfMode::kFekf  — funnel dataflow: gradients/errors reduced across
//                        the batch FIRST, one shared P, sqrt(bs) step
//                        (Algorithm 1). batch_size 1 reproduces RLEKF.
//      EkfMode::kNaive — fusiform dataflow: full per-sample Kalman updates
//                        against per-sample P replicas, increments averaged.
//
// Iteration time is split into the three Figure 7(c) phases by the "train"
// spans around them: forward (prediction + measurement assembly),
// gradient (backward pass), and kf_update / adam_update (optimizer
// algebra). Read the split with obs::SpanClock.
//
// Every trainer shares one resilient step loop (DESIGN.md §10): every
// optimizer step is guarded by divergence sentinels (non-finite loss /
// gradient / weights / covariance, loss explosion) and by a try/catch
// around the whole step, so a worker exception or a numerically diverging
// update rolls the trainer back to the last good in-memory snapshot,
// reconditions the covariance, records a FaultLog event, and skips the
// batch — training continues. The loop also writes full-state checkpoints
// (train/checkpoint.hpp) every `checkpoint_every` steps and can resume
// from one bit-exactly via `resume_from`.
#pragma once

#include <functional>

#include "core/timer.hpp"
#include "optim/adam.hpp"
#include "optim/flat_params.hpp"
#include "optim/kalman.hpp"
#include "optim/naive_ekf.hpp"
#include "train/checkpoint.hpp"
#include "train/measurement.hpp"

namespace fekf::train {

class TrainObserver;

struct TrainOptions {
  i64 batch_size = 1;
  i64 max_epochs = 20;
  /// Converged when train-subset (energy + force) RMSE <= target; < 0
  /// disables the check and runs max_epochs.
  f64 target_total_rmse = -1.0;
  i64 force_updates_per_step = 4;
  /// EKF force-measurement prefactor. The RLEKF paper uses 2 at its scale
  /// (tens of thousands of update steps); at this repo's bench scale
  /// (hundreds of steps) a hotter prefactor is needed for the force fit to
  /// move — 15 converges on all eight catalog systems (see DESIGN.md §1 on
  /// scale substitutions).
  f64 force_prefactor = 15.0;
  /// Evaluation subset size; < 0 evaluates the whole split.
  i64 eval_max_samples = 32;
  bool eval_forces = true;
  /// Quasi-learning-rate factor multiplying ABE in the weight step
  /// (Eq. 2 / Figure 4). < 0 selects the paper's sqrt(batch_size).
  f64 qlr_factor = -1.0;
  u64 seed = 7;
  bool verbose = false;

  // --- resilience (DESIGN.md §10) ---
  /// Divergence sentinels: per-step health checks with automatic rollback
  /// to the last good snapshot. Disabled, a bad step propagates (worker
  /// exceptions rethrow, non-finite values poison the run).
  bool sentinels = true;
  /// Healthy steps between in-memory snapshots (1 = snapshot every step;
  /// larger trades rollback distance for snapshot overhead).
  i64 snapshot_every = 1;
  /// A step whose loss exceeds this factor times the running loss EMA is
  /// treated as diverging and rolled back.
  f64 sentinel_explode_factor = 1e6;
  /// Healthy steps observed before the explosion sentinel arms.
  i64 sentinel_warmup_steps = 8;
  /// Write a full training checkpoint every N optimizer steps (0 = off;
  /// requires checkpoint_path).
  i64 checkpoint_every = 0;
  std::string checkpoint_path;
  /// Resume from this checkpoint file: restores weights, optimizer state,
  /// sampler/RNG streams, history, and counters. A resumed run reproduces
  /// the uninterrupted trajectory bit-for-bit.
  std::string resume_from;
  /// Stop after this many optimizer steps in total (<= 0 = no limit).
  /// Cuts a run at a checkpoint boundary (kill/resume tests, staged
  /// online-learning rounds).
  i64 max_steps = -1;

  // --- observability (DESIGN.md §11) ---
  /// Non-owning observer hooks (train/observer.hpp), invoked synchronously
  /// by the resilient step loop: on_step after every optimizer step,
  /// on_eval after each epoch evaluation, on_checkpoint after a checkpoint
  /// write, on_fault on every recovery event. Must outlive train().
  std::vector<TrainObserver*> observers;

  /// Reject non-positive sizes / non-finite rates with a clear Error.
  /// Called by every trainer before the first step.
  void validate() const;
};

struct TrainResult {
  std::vector<EpochRecord> history;
  bool converged = false;
  i64 epochs_to_converge = -1;
  f64 seconds_to_converge = -1.0;
  f64 total_seconds = 0.0;
  i64 steps = 0;
  Metrics final_train;
  Metrics final_test;
  /// Every sentinel trip / injected fault the run recovered from.
  FaultLog faults;
  f64 recovery_seconds = 0.0;    ///< spent restoring snapshots
  f64 checkpoint_seconds = 0.0;  ///< spent writing checkpoints
};

/// Per-step health signals a step reports back to the resilient loop.
struct StepSignals {
  f64 loss = 0.0;        ///< sum of |ABE| per update, or the Adam loss
  f64 grad_norm2 = 0.0;  ///< squared norm of the gathered gradient(s)
};

/// Trainer-specific operations the resilient loop composes. All state they
/// touch (weights, optimizer, RNGs) lives with the trainer.
struct ResilienceHooks {
  /// One optimizer step on a batch at its 1-based step index. Events the
  /// step records itself (the virtual cluster's membership faults) go to
  /// the run's FaultLog.
  std::function<StepSignals(std::span<const EnvPtr>, i64, FaultLog&)> run_step;
  std::function<void()> snapshot;
  std::function<void()> rollback;  ///< restore snapshot + recondition
  std::function<f64()> covariance_health;  ///< max P diagonal (0 for Adam)
  std::function<void(TrainingCheckpoint&)> capture;
  std::function<void(const TrainingCheckpoint&)> restore;
};

/// The resilient epoch loop every trainer runs (DESIGN.md §10): Adam, the
/// EKF family, and the data-parallel FEKF of dist/cluster.hpp. One
/// iteration = one guarded optimizer step: run it, check the sentinels, and
/// either accept (advance the loss EMA, refresh the snapshot) or recover
/// (roll back, recondition, log, skip the batch). Worker exceptions funnel
/// into the same recovery path, so a throw mid-step can never leave
/// half-applied trainer state behind. The loop owns the batch sampler,
/// resume, the epoch evaluation and the convergence test. Checkpoints are
/// written only at step boundaries, after the step's state is fully
/// applied. `weights` is the authoritative flat weight vector `flat`
/// scatters into the model.
TrainResult run_resilient_epochs(deepmd::DeepmdModel& model,
                                 std::span<const EnvPtr> train_envs,
                                 std::span<const EnvPtr> test_envs,
                                 const TrainOptions& options,
                                 optim::FlatParams& flat,
                                 std::vector<f64>& weights,
                                 const ResilienceHooks& hooks);

class AdamTrainer {
 public:
  struct LossConfig {
    // DeePMD prefactor schedule, interpolated by lr(t)/lr(0).
    f64 pe_start = 0.02, pe_limit = 1.0;
    f64 pf_start = 1000.0, pf_limit = 1.0;
  };

  AdamTrainer(deepmd::DeepmdModel& model, optim::AdamConfig adam_config,
              LossConfig loss_config, TrainOptions options);

  TrainResult train(std::span<const EnvPtr> train_envs,
                    std::span<const EnvPtr> test_envs);

 private:
  ag::Variable batch_loss(std::span<const EnvPtr> batch);

  deepmd::DeepmdModel& model_;
  optim::FlatParams flat_;
  optim::Adam adam_;
  LossConfig loss_config_;
  TrainOptions options_;
  f64 lr0_;
  std::vector<f64> weights_;
  std::vector<f64> grads_;
  i64 current_step_ = 0;
  // Last good state for sentinel rollback.
  std::vector<f64> snap_weights_;
  optim::AdamState snap_adam_;
};

enum class EkfMode { kFekf, kNaive };

class KalmanTrainer {
 public:
  KalmanTrainer(deepmd::DeepmdModel& model, optim::KalmanConfig kalman_config,
                TrainOptions options, EkfMode mode = EkfMode::kFekf);

  TrainResult train(std::span<const EnvPtr> train_envs,
                    std::span<const EnvPtr> test_envs);

  /// Single updates, exposed for the kernel-count / iteration-time
  /// instrumentation benches (Figure 7b/7c).
  void energy_update(std::span<const EnvPtr> batch);
  void force_update(std::span<const EnvPtr> batch,
                    std::span<const i64> group);

  const optim::KalmanOptimizer* kalman() const { return kalman_.get(); }
  const optim::NaiveEkf* naive() const { return naive_.get(); }

 private:
  void apply_fekf(const Measurement& measurement, i64 batch_size,
                  std::optional<f64> step_norm_cap);
  void apply_naive_sample(i64 slot, const Measurement& measurement);
  void snapshot_state();
  void rollback_state();
  void capture(TrainingCheckpoint& ckpt);
  void restore(const TrainingCheckpoint& ckpt);

  deepmd::DeepmdModel& model_;
  optim::FlatParams flat_;
  std::unique_ptr<optim::KalmanOptimizer> kalman_;
  std::unique_ptr<optim::NaiveEkf> naive_;
  TrainOptions options_;
  EkfMode mode_;
  std::vector<f64> weights_;
  std::vector<f64> grad_flat_;
  Rng group_rng_;
  i64 current_step_ = 0;
  // Per-step sentinel signals, accumulated across the energy + force
  // updates of one step.
  f64 step_loss_ = 0.0;
  f64 step_grad_norm2_ = 0.0;
  // Last good weights for sentinel rollback; the optimizers keep their
  // own snapshot (KalmanOptimizer::snapshot).
  std::vector<f64> snap_weights_;
};

}  // namespace fekf::train
