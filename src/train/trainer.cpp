#include "train/trainer.hpp"

#include <cmath>
#include <exception>
#include <limits>

#include "autograd/ops.hpp"
#include "core/log.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/workspace.hpp"
#include "train/observer.hpp"

namespace fekf::train {

namespace op = ag::ops;

void TrainOptions::validate() const {
  FEKF_CHECK(batch_size > 0, "TrainOptions.batch_size must be > 0 (got " +
                                 std::to_string(batch_size) + ")");
  FEKF_CHECK(max_epochs > 0, "TrainOptions.max_epochs must be > 0 (got " +
                                 std::to_string(max_epochs) + ")");
  FEKF_CHECK(std::isfinite(force_prefactor) && force_prefactor > 0.0,
             "TrainOptions.force_prefactor must be finite and > 0 (got " +
                 std::to_string(force_prefactor) + ")");
  FEKF_CHECK(eval_max_samples != 0,
             "TrainOptions.eval_max_samples must be nonzero "
             "(negative evaluates the whole split)");
  FEKF_CHECK(std::isfinite(qlr_factor),
             "TrainOptions.qlr_factor must be finite "
             "(negative selects sqrt(batch_size))");
  FEKF_CHECK(checkpoint_every >= 0,
             "TrainOptions.checkpoint_every must be >= 0 (0 disables)");
  FEKF_CHECK(checkpoint_every == 0 || !checkpoint_path.empty(),
             "TrainOptions.checkpoint_every is set but checkpoint_path "
             "is empty");
}

namespace {

bool all_finite(const std::vector<f64>& v) {
  for (const f64 x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

f64 squared_norm(const std::vector<f64>& v) {
  f64 norm2 = 0.0;
  for (const f64 x : v) norm2 += x * x;
  return norm2;
}

}  // namespace

TrainResult run_resilient_epochs(deepmd::DeepmdModel& model,
                                 std::span<const EnvPtr> train_envs,
                                 std::span<const EnvPtr> test_envs,
                                 const TrainOptions& options,
                                 optim::FlatParams& flat,
                                 std::vector<f64>& weights,
                                 const ResilienceHooks& hooks) {
  options.validate();
  TrainResult result;
  data::BatchSampler sampler(static_cast<i64>(train_envs.size()),
                             options.batch_size, options.seed);
  i64 start_epoch = 1;
  f64 time_offset = 0.0;
  if (!options.resume_from.empty()) {
    LoadedCheckpoint loaded = load_checkpoint(options.resume_from);
    TrainingCheckpoint& ckpt = loaded.state;
    FEKF_CHECK(ckpt.layout == model.parameter_layout(),
               "checkpoint '" + options.resume_from +
                   "' does not match the model architecture "
                   "(parameter layout differs)");
    weights = std::move(ckpt.weights);
    flat.scatter(weights);
    hooks.restore(ckpt);
    sampler.set_state(ckpt.sampler);
    result.history = std::move(ckpt.history);
    result.faults = std::move(ckpt.faults);
    result.steps = ckpt.steps;
    start_epoch = ckpt.epoch;
    if (!result.history.empty()) {
      time_offset = result.history.back().cumulative_seconds;
    }
  }

  Stopwatch watch;
  std::vector<i64> indices;
  std::vector<EnvPtr> batch;
  f64 loss_ema = 0.0;
  i64 healthy_steps = 0;
  if (options.sentinels) hooks.snapshot();
  bool hit_max_steps = false;
  for (i64 epoch = start_epoch; epoch <= options.max_epochs; ++epoch) {
    while (sampler.next(indices)) {
      batch.clear();
      for (const i64 idx : indices) {
        batch.push_back(train_envs[static_cast<std::size_t>(idx)]);
      }
      const i64 step_index = result.steps + 1;
      StepSignals sig;
      std::exception_ptr error;
      Stopwatch step_watch;
      {
        obs::ScopedSpan step_span("step", "train");
        step_span.arg("step", static_cast<f64>(step_index));
        try {
          sig = hooks.run_step(std::span<const EnvPtr>(batch), step_index,
                               result.faults);
        } catch (...) {
          error = std::current_exception();
        }
      }
      if (error && !options.sentinels) std::rethrow_exception(error);

      std::string reason, detail;
      if (error) {
        reason = "worker_exception";
        try {
          std::rethrow_exception(error);
        } catch (const std::exception& e) {
          detail = e.what();
        } catch (...) {
          detail = "non-standard exception";
        }
      } else if (options.sentinels) {
        if (!std::isfinite(sig.loss) || !std::isfinite(sig.grad_norm2)) {
          reason = "nonfinite_signal";
          detail = "loss=" + std::to_string(sig.loss) +
                   " |g|^2=" + std::to_string(sig.grad_norm2);
        } else if (!all_finite(weights)) {
          reason = "nonfinite_weights";
        } else if (!std::isfinite(hooks.covariance_health())) {
          reason = "nonfinite_covariance";
        } else if (healthy_steps >= kLossSentinelWarmupSteps &&
                   loss_ema > 0.0 && sig.loss > kLossExplodeFactor * loss_ema) {
          reason = "exploding_loss";
          detail = "loss=" + std::to_string(sig.loss) +
                   " ema=" + std::to_string(loss_ema);
        }
      }

      if (!reason.empty()) {
        Stopwatch recovery;
        hooks.rollback();
        result.recovery_seconds += recovery.seconds();
        result.faults.record(step_index, reason, "rollback_skip_batch",
                             detail);
        obs::TraceRecorder::instance().instant("fault.rollback", "fault",
                                               "step",
                                               static_cast<f64>(step_index));
        for (TrainObserver* observer : options.observers) {
          observer->on_fault(result.faults.events.back());
        }
        if (options.verbose) {
          FEKF_WARN << "step " << step_index << ": " << reason
                    << " — rolled back to last good state, batch skipped";
        }
      } else if (options.sentinels) {
        loss_ema = healthy_steps == 0
                       ? std::abs(sig.loss)
                       : 0.9 * loss_ema + 0.1 * std::abs(sig.loss);
        ++healthy_steps;
        hooks.snapshot();
      }
      // Skipped batches still count as attempted steps, so fault triggers
      // keyed on the step index stay deterministic across reruns.
      ++result.steps;

      if (obs::metrics_enabled()) {
        auto& metrics = obs::MetricsRegistry::instance();
        metrics.counter("train.steps").inc();
        metrics.histogram("train.step_seconds").record(step_watch.seconds());
        if (!reason.empty()) metrics.counter("train.rollbacks").inc();
        metrics.gauge("train.loss_ema").set(loss_ema);
        metrics.gauge("train.loss").set(sig.loss);
        // Arena occupancy, so the telemetry sampler's time-series shows
        // whether steady-state steps stay allocation-free.
        const WorkspaceStats arena = Workspace::stats();
        metrics.gauge("arena.reserved_bytes")
            .set(static_cast<f64>(arena.reserved_bytes));
        metrics.gauge("arena.peak_scope_bytes")
            .set(static_cast<f64>(arena.peak_scope_bytes));
        metrics.gauge("arena.retired_slabs")
            .set(static_cast<f64>(arena.retired_slabs));
      }
      if (!options.observers.empty()) {
        StepEvent step_event;
        step_event.step = step_index;
        step_event.epoch = epoch;
        step_event.loss = sig.loss;
        step_event.grad_norm2 = sig.grad_norm2;
        step_event.seconds = step_watch.seconds();
        step_event.rolled_back = !reason.empty();
        step_event.fault_kind = reason;
        for (TrainObserver* observer : options.observers) {
          observer->on_step(step_event);
        }
      }

      if (options.checkpoint_every > 0 &&
          result.steps % options.checkpoint_every == 0) {
        Stopwatch ckpt_watch;
        TrainingCheckpoint ckpt;
        ckpt.epoch = epoch;
        ckpt.steps = result.steps;
        ckpt.layout = model.parameter_layout();
        ckpt.weights = weights;
        ckpt.sampler = sampler.state();
        ckpt.history = result.history;
        ckpt.faults = result.faults;
        hooks.capture(ckpt);
        save_checkpoint(ckpt, model, options.checkpoint_path);
        if (FaultInjector::instance().fire(faults::kCorruptCkpt,
                                           result.steps)) {
          FaultInjector::corrupt_file(options.checkpoint_path);
          result.faults.record(result.steps, "corrupt_ckpt",
                               "injected_bit_flip", options.checkpoint_path);
          for (TrainObserver* observer : options.observers) {
            observer->on_fault(result.faults.events.back());
          }
        }
        result.checkpoint_seconds += ckpt_watch.seconds();
        if (obs::metrics_enabled()) {
          auto& metrics = obs::MetricsRegistry::instance();
          metrics.counter("train.checkpoints").inc();
          metrics.histogram("checkpoint.write_seconds")
              .record(ckpt_watch.seconds());
        }
        if (!options.observers.empty()) {
          CheckpointEvent ckpt_event;
          ckpt_event.step = result.steps;
          ckpt_event.path = options.checkpoint_path;
          ckpt_event.seconds = ckpt_watch.seconds();
          for (TrainObserver* observer : options.observers) {
            observer->on_checkpoint(ckpt_event);
          }
        }
      }
      if (options.max_steps > 0 && result.steps >= options.max_steps) {
        hit_max_steps = true;
        break;
      }
    }
    if (hit_max_steps) break;
    EpochRecord record;
    record.epoch = epoch;
    record.cumulative_seconds = time_offset + watch.seconds();
    {
      obs::ScopedSpan eval_span("eval", "train");
      eval_span.arg("epoch", static_cast<f64>(epoch));
      record.train = evaluate(model, train_envs, options.eval_max_samples,
                              options.eval_forces);
      if (!test_envs.empty()) {
        record.test = evaluate(model, test_envs, options.eval_max_samples,
                               options.eval_forces);
      }
    }
    if (options.verbose) {
      FEKF_INFO << "epoch " << epoch << " train E-RMSE "
                << record.train.energy_rmse << " F-RMSE "
                << record.train.force_rmse << " (t=" << record.cumulative_seconds
                << "s)";
    }
    if (obs::metrics_enabled()) {
      auto& metrics = obs::MetricsRegistry::instance();
      metrics.gauge("train.energy_offset_per_atom")
          .set(record.train.energy_offset_per_atom);
      metrics.gauge("train.energy_spread_per_atom")
          .set(record.train.energy_spread_per_atom);
    }
    result.history.push_back(record);
    for (TrainObserver* observer : options.observers) {
      observer->on_eval(record);
    }
    if (!result.converged && options.target_total_rmse > 0.0 &&
        record.train.total() <= options.target_total_rmse) {
      result.converged = true;
      result.epochs_to_converge = epoch;
      result.seconds_to_converge = record.cumulative_seconds;
      break;
    }
  }
  result.total_seconds = watch.seconds();
  if (!result.history.empty()) {
    result.final_train = result.history.back().train;
    result.final_test = result.history.back().test;
  }
  return result;
}

// ---------------------------------------------------------------------------
// AdamTrainer
// ---------------------------------------------------------------------------

AdamTrainer::AdamTrainer(deepmd::DeepmdModel& model,
                         optim::AdamConfig adam_config,
                         LossConfig loss_config, TrainOptions options)
    : model_(model),
      flat_(model.parameters()),
      adam_(flat_.size(), adam_config),
      loss_config_(loss_config),
      options_(options),
      lr0_(adam_config.lr * adam_config.lr_scale) {
  options_.validate();
  weights_.resize(static_cast<std::size_t>(flat_.size()));
  grads_.resize(static_cast<std::size_t>(flat_.size()));
  flat_.gather(weights_);
}

ag::Variable AdamTrainer::batch_loss(std::span<const EnvPtr> batch) {
  // DeePMD loss with lr-coupled prefactors:
  //   L = pe (dE/N)^2 + pf/(3N) sum |dF|^2,   p = limit + (start-limit) r,
  // where r = lr(t)/lr(0) decays from 1 to 0.
  const f64 r = adam_.current_lr() / lr0_;
  const f64 pe = loss_config_.pe_limit +
                 (loss_config_.pe_start - loss_config_.pe_limit) * r;
  const f64 pf = loss_config_.pf_limit +
                 (loss_config_.pf_start - loss_config_.pf_limit) * r;
  // Per-sample losses assemble in parallel (independent tape subgraphs) and
  // combine in batch order, so the loss graph is identical at any width.
  const i64 bs = static_cast<i64>(batch.size());
  std::vector<ag::Variable> samples(static_cast<std::size_t>(bs));
  parallel_for(0, bs, [&](i64 s) {
    const EnvPtr& env = batch[static_cast<std::size_t>(s)];
    auto pred = model_.predict(env, /*with_forces=*/true);
    const f64 natoms = static_cast<f64>(env->natoms);
    ag::Variable de = op::add_scalar(
        pred.energy, static_cast<f32>(-env->energy_label));
    ag::Variable loss_e = op::scale(
        op::square(op::scale(de, static_cast<f32>(1.0 / natoms))),
        static_cast<f32>(pe));
    ag::Variable df =
        op::sub(pred.forces, ag::Variable(env->force_label));
    ag::Variable loss_f = op::scale(op::sum_all(op::square(df)),
                                    static_cast<f32>(pf / (3.0 * natoms)));
    samples[static_cast<std::size_t>(s)] = op::add(loss_e, loss_f);
  });
  ag::Variable loss;
  for (i64 s = 0; s < bs; ++s) {
    const ag::Variable& sample = samples[static_cast<std::size_t>(s)];
    loss = loss.defined() ? op::add(loss, sample) : sample;
  }
  return op::scale(loss, 1.0f / static_cast<f32>(batch.size()));
}

TrainResult AdamTrainer::train(std::span<const EnvPtr> train_envs,
                               std::span<const EnvPtr> test_envs) {
  auto params = flat_.params();
  ResilienceHooks hooks;
  hooks.run_step = [&](std::span<const EnvPtr> batch, i64 step_index,
                       FaultLog&) -> StepSignals {
    current_step_ = step_index;
    // The loss graph is declared after the scope, so it is destroyed
    // before the arena rewinds (the StepSignals return value is built
    // while `loss` is still alive).
    ArenaScope arena;
    ag::Variable loss;
    {
      obs::ScopedSpan span("forward", "train");
      loss = batch_loss(batch);
    }
    {
      obs::ScopedSpan span("gradient", "train");
      auto g = ag::grad(loss, params);
      flat_.gather_grads(g, grads_);
    }
    if (FaultInjector::instance().fire(faults::kNanGrad, step_index)) {
      grads_[0] = std::numeric_limits<f64>::quiet_NaN();
    }
    const f64 grad_norm2 = squared_norm(grads_);
    {
      obs::ScopedSpan span("adam_update", "train");
      adam_.step(grads_, weights_);
      flat_.scatter(weights_);
    }
    return {static_cast<f64>(loss.item()), grad_norm2};
  };
  hooks.snapshot = [&] {
    snap_weights_ = weights_;
    snap_adam_ = adam_.state();
  };
  hooks.rollback = [&] {
    weights_ = snap_weights_;
    adam_.set_state(snap_adam_);
    flat_.scatter(weights_);
  };
  hooks.covariance_health = [] { return 0.0; };
  hooks.capture = [&](TrainingCheckpoint& ckpt) {
    ckpt.optimizer.kind = OptimizerCheckpoint::Kind::kAdam;
    ckpt.optimizer.adam = adam_.state();
  };
  hooks.restore = [&](const TrainingCheckpoint& ckpt) {
    FEKF_CHECK(ckpt.optimizer.kind == OptimizerCheckpoint::Kind::kAdam,
               "checkpoint optimizer state is not Adam");
    adam_.set_state(ckpt.optimizer.adam);
  };
  return run_resilient_epochs(model_, train_envs, test_envs, options_, flat_,
                              weights_, hooks);
}

// ---------------------------------------------------------------------------
// KalmanTrainer
// ---------------------------------------------------------------------------

KalmanTrainer::KalmanTrainer(deepmd::DeepmdModel& model,
                             optim::KalmanConfig kalman_config,
                             TrainOptions options,
                             GradientReducer* reducer)
    : model_(model),
      flat_(model.parameters()),
      kalman_(optim::split_blocks(model.parameter_layout(),
                                  kalman_config.blocksize),
              kalman_config),
      options_(options),
      reducer_(reducer) {
  options_.validate();
  weights_.resize(static_cast<std::size_t>(flat_.size()));
  grad_flat_.resize(static_cast<std::size_t>(flat_.size()));
  flat_.gather(weights_);
}

void KalmanTrainer::update(std::span<const EnvPtr> batch,
                           const Measure& measure,
                           std::optional<f64> step_norm_cap) {
  // Opened before any measurement graph exists, so every graph dies before
  // the scope rewinds the arena (workspace.hpp aliasing rules).
  ArenaScope arena;
  const auto gradient = [&](std::span<const EnvPtr> b, std::span<f64> grad) {
    Measurement m;
    {
      obs::ScopedSpan span("forward", "train");
      m = measure(b);
    }
    obs::ScopedSpan span("gradient", "train");
    flat_.gather_grads(ag::grad(m.m, flat_.params()), grad);
    return m.abe;
  };
  const f64 abe = reducer_ != nullptr
                      ? reducer_->reduce(batch, gradient, grad_flat_)
                      : gradient(batch, grad_flat_);
  if (FaultInjector::instance().fire(faults::kNanGrad, current_step_)) {
    grad_flat_[0] = std::numeric_limits<f64>::quiet_NaN();
  }
  Stopwatch kf_watch;
  {
    obs::ScopedSpan span("kf_update", "train");
    step_loss_ += std::abs(abe);
    step_grad_norm2_ += squared_norm(grad_flat_);
    const f64 factor = options_.qlr_factor >= 0.0
                           ? options_.qlr_factor
                           : std::sqrt(static_cast<f64>(batch.size()));
    kalman_.update(grad_flat_, factor * abe, weights_, step_norm_cap, abe);
    flat_.scatter(weights_);
  }
  if (reducer_ != nullptr) reducer_->after_update(kf_watch.seconds());
}

void KalmanTrainer::energy_update(std::span<const EnvPtr> batch) {
  // Energy updates are well-posed scalar Newton steps — run uncapped so
  // large transient energy errors close in one or two updates.
  update(
      batch,
      [&](std::span<const EnvPtr> b) { return energy_measurement(model_, b); },
      /*step_norm_cap=*/0.0);
}

void KalmanTrainer::force_update(std::span<const EnvPtr> batch,
                                 std::span<const i64> group) {
  update(
      batch,
      [&](std::span<const EnvPtr> b) {
        return force_measurement(model_, b, group, options_.force_prefactor);
      },
      /*step_norm_cap=*/std::nullopt);
}

void KalmanTrainer::snapshot_state() {
  obs::ScopedSpan span("train.snapshot", "train");
  snap_weights_ = weights_;
  kalman_.snapshot();
}

void KalmanTrainer::rollback_state() {
  obs::ScopedSpan span("train.rollback", "train");
  weights_ = snap_weights_;
  kalman_.rollback();
  kalman_.recondition();
  flat_.scatter(weights_);
}

void KalmanTrainer::capture(TrainingCheckpoint& ckpt) {
  ckpt.optimizer.kind = OptimizerCheckpoint::Kind::kKalman;
  ckpt.optimizer.kalman = kalman_.state();
  ckpt.has_group_rng = true;
  ckpt.group_rng = group_rng_.state();
  if (reducer_ != nullptr) reducer_->capture(ckpt);
}

void KalmanTrainer::restore(const TrainingCheckpoint& ckpt) {
  FEKF_CHECK(ckpt.optimizer.kind == OptimizerCheckpoint::Kind::kKalman,
             "checkpoint optimizer state is not a shared-P Kalman filter");
  kalman_.set_state(ckpt.optimizer.kalman);
  FEKF_CHECK(ckpt.has_group_rng,
             "checkpoint is missing the force-group RNG stream");
  group_rng_.set_state(ckpt.group_rng);
  if (reducer_ != nullptr) reducer_->restore(ckpt);
}

TrainResult KalmanTrainer::train(std::span<const EnvPtr> train_envs,
                                 std::span<const EnvPtr> test_envs) {
  FEKF_CHECK(!train_envs.empty(), "empty training set");
  // Re-seed per train() call so repeated warm restarts on one trainer see
  // identical force-group sequences (restored from the checkpoint instead
  // when resuming).
  group_rng_.reseed(options_.seed ^ 0x9e3779b9ULL);
  const i64 natoms = train_envs.front()->natoms;
  ResilienceHooks hooks;
  hooks.run_step = [&](std::span<const EnvPtr> batch, i64 step_index,
                       FaultLog& log) -> StepSignals {
    current_step_ = step_index;
    step_loss_ = 0.0;
    step_grad_norm2_ = 0.0;
    if (reducer_ != nullptr) reducer_->begin_step(step_index, log);
    energy_update(batch);
    auto groups = make_force_groups(natoms, kForceGroupsPerStep, group_rng_);
    for (const auto& group : groups) {
      force_update(batch, group);
    }
    return {step_loss_, step_grad_norm2_};
  };
  hooks.snapshot = [&] { snapshot_state(); };
  hooks.rollback = [&] { rollback_state(); };
  hooks.covariance_health = [&] { return kalman_.last_max_diag(); };
  hooks.capture = [&](TrainingCheckpoint& ckpt) { capture(ckpt); };
  hooks.restore = [&](const TrainingCheckpoint& ckpt) { restore(ckpt); };
  return run_resilient_epochs(model_, train_envs, test_envs, options_, flat_,
                              weights_, hooks);
}

}  // namespace fekf::train
