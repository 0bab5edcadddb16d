// Training workloads (FEKF batch 8 at bench width, RLEKF at paper width) and
// the traced training replay shared by every workload's traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "autograd/variable.hpp"
#include "bench.hpp"
#include "deepmd/serialize.hpp"
#include "optim/ekf_blocks.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/workspace.hpp"

namespace fekf::perfbench {

namespace {

constexpr i64 kSetupReps = 3;
constexpr i64 kForceUpdatesPerStep = 4;
constexpr i64 kBlocksize = 2048;
/// Fixed neighbor budget for the 6 Å Cu training cutoff (about 80
/// neighbors at 400-800 K). Sizing it from the data would make the work per
/// step depend on the seed.
constexpr i64 kCuSel = 96;
/// Train E+F RMSE (eV + eV/Å) that train_s_to_target waits for.
constexpr f64 kTargetRmse = 40.0;

}  // namespace

deepmd::ModelConfig bench_width_config() {
  deepmd::ModelConfig cfg;
  cfg.embed_width = 12;
  cfg.axis_neurons = 6;
  cfg.fitting_width = 24;
  return cfg;
}

optim::KalmanConfig kalman_config(i64 batch) {
  optim::KalmanConfig cfg = optim::KalmanConfig::for_batch_size(batch);
  cfg.blocksize = kBlocksize;
  return cfg;
}

data::Dataset build_cu_dataset(i64 train_per_temperature,
                               i64 test_per_temperature, u64 seed,
                               SetupTimes& times) {
  data::DatasetConfig cfg;
  cfg.train_per_temperature = train_per_temperature;
  cfg.test_per_temperature = test_per_temperature;
  cfg.seed = seed;
  const f64 t0 = now_s();
  data::Dataset ds = data::build_dataset(data::get_system("Cu"), cfg);
  times.data_build_s.push_back(now_s() - t0);
  return ds;
}

TrainShape fekf_shape() {
  TrainShape s;
  s.batch = 8;
  s.model = bench_width_config();
  s.model.sel = {kCuSel};
  s.train_per_temperature = 8;  // 40 snapshots: 5 steps per epoch
  s.test_per_temperature = 2;
  s.eval_samples = 16;
  s.nominal_epoch_s = 7.0;
  return s;
}

TrainShape rlekf_shape() {
  TrainShape s;
  s.batch = 1;  // FEKF at batch 1 is RLEKF
  s.model = deepmd::ModelConfig{};  // paper width: embed 25, axis 16, fit 50
  s.model.sel = {kCuSel};
  s.train_per_temperature = 2;  // 10 snapshots: 10 steps per epoch
  s.test_per_temperature = 1;
  s.eval_samples = 5;
  s.nominal_epoch_s = 20.0;
  return s;
}

std::unique_ptr<TrainFixture> make_train_fixture(const TrainShape& shape,
                                                 const Args& args,
                                                 SetupTimes& times) {
  auto fx = std::make_unique<TrainFixture>();
  const i64 per_temp = std::max<i64>(
      1, shape.train_per_temperature / args.tiny);
  fx->dataset = build_cu_dataset(per_temp, shape.test_per_temperature,
                                 args.seed, times);
  fx->model = std::make_unique<deepmd::DeepmdModel>(shape.model, 1);
  const f64 t0 = now_s();
  fx->model->fit_stats(fx->dataset.train);
  times.fit_stats_s.push_back(now_s() - t0);
  fx->train_envs = train::prepare_all(*fx->model, fx->dataset.train);
  fx->test_envs = train::prepare_all(*fx->model, fx->dataset.test);
  fx->start = std::make_unique<deepmd::DeepmdModel>(
      deepmd::clone_model(*fx->model));
  fx->kcfg = kalman_config(shape.batch);

  train::TrainOptions& o = fx->options;
  o.batch_size = shape.batch;
  o.eval_max_samples = shape.eval_samples;
  o.seed = args.seed;
  // A fixed step budget in whole epochs, so every run ends on an epoch
  // evaluation and the final RMSE is a deterministic function of the seed.
  o.max_epochs = std::max<i64>(
      1, std::lround(args.seconds / shape.nominal_epoch_s /
                     static_cast<f64>(args.tiny)));
  return fx;
}

void StepLog::arm(bool count) {
  count_ = count;
  mark_ = Clock::now();
  if (count_) {
    mark_launches_ = KernelCounter::total();
    mark_allocs_ = Workspace::stats().allocs;
  }
}

void StepLog::on_step(const train::StepEvent& event) {
  const Clock t = Clock::now();
  step_s.push_back(steady_s(mark_, t));
  step_wall_s.push_back(t.wall - mark_.wall);
  if (event.rolled_back) ++rollbacks;
  if (count_) {
    const i64 k = KernelCounter::total();
    const i64 a = Workspace::stats().allocs;
    launches += k - mark_launches_;
    allocs += a - mark_allocs_;
    mark_launches_ = k;
    mark_allocs_ = a;
  }
  speed.probe();
  mark_ = Clock::now();
}

void StepLog::on_eval(const train::EpochRecord&) {
  const Clock t = Clock::now();
  eval_s.push_back(t.wall - mark_.wall);
  mark_ = t;
  if (count_) {
    mark_launches_ = KernelCounter::total();
    mark_allocs_ = Workspace::stats().allocs;
  }
}

f64 samples_per_s(const StepLog& log, i64 batch) {
  // Over steal-free step times. The first step pays arena growth and the
  // initial P snapshot; it is warm-up, not throughput.
  if (log.step_s.size() < 2) return 0.0;
  f64 busy = 0.0;
  for (std::size_t i = 1; i < log.step_s.size(); ++i) busy += log.step_s[i];
  return static_cast<f64>(batch) *
         static_cast<f64>(log.step_s.size() - 1) / busy;
}

void check_training(const train::TrainResult& result, Report& report) {
  if (result.history.empty()) {
    report.fail("training ended without an epoch evaluation");
    return;
  }
  const train::Metrics& m = result.history.back().test;
  if (!std::isfinite(m.total()) || m.total() <= 0.0) {
    report.fail("final test RMSE is not a positive finite number");
  }
}

void add_setup_layer_metrics(const SetupTimes& times, Report& report) {
  report.add("data.build_s", median(times.data_build_s), "s");
  report.add("deepmd.fit_stats_s", median(times.fit_stats_s), "s");
}

void add_train_step_metrics(const StepLog& log,
                            const train::TrainResult& result, Report& report) {
  // Plain wall time, like the replayed calls train.unattributed_ms is
  // taken against.
  const std::vector<f64> wall(log.step_wall_s.begin() + 1,
                              log.step_wall_s.end());
  report.add("train.step_p50_ms", 1e3 * percentile(wall, 0.5), "ms");
  report.add("train.step_p90_ms", 1e3 * percentile(wall, 0.9), "ms");
  report.add("train.eval_s", median(log.eval_s), "s");
  report.add("train.rollbacks", static_cast<f64>(log.rollbacks), "count");
  const f64 steps = static_cast<f64>(std::max<i64>(1, result.steps));
  report.add("tensor.launches_per_step", static_cast<f64>(log.launches) / steps,
             "count");
  report.add("tensor.arena_allocs_per_step",
             static_cast<f64>(log.allocs) / steps, "count");
  report.add("tensor.arena_peak_mb",
             static_cast<f64>(Workspace::stats().reserved_bytes) / 1e6, "MB");
}

void add_unattributed(Report& report) {
  f64 step_ms = 0.0, replay_ms = 0.0;
  for (const Metric& m : report.metrics) {
    if (m.name == "train.step_p50_ms") step_ms = m.value;
    if (m.name == "train.replay_step_ms") replay_ms = m.value;
  }
  report.add("train.unattributed_ms", step_ms - replay_ms, "ms");
}

void trace_train_steps(const deepmd::DeepmdModel& start,
                       const data::Dataset& dataset, i64 batch,
                       const Args& args, Report& report) {
  deepmd::DeepmdModel model = deepmd::clone_model(start);
  const std::vector<train::EnvPtr> train_envs =
      train::prepare_all(model, dataset.train);
  const std::vector<train::EnvPtr> test_envs =
      train::prepare_all(model, dataset.test);
  StepLog log;
  train::TrainOptions options;
  options.batch_size =
      std::min<i64>(batch, static_cast<i64>(train_envs.size()));
  options.max_epochs = 3;
  options.seed = args.seed;
  options.observers = {&log};
  train::KalmanTrainer trainer(model, kalman_config(options.batch_size),
                               options);
  KernelCountScope count;
  Workspace::reset_stats();
  log.arm(true);
  const train::TrainResult result = trainer.train(train_envs, test_envs);
  check_training(result, report);
  add_train_step_metrics(log, result, report);
}

void trace_train_layers(const deepmd::DeepmdModel& start,
                        const data::Dataset& dataset, i64 batch,
                        const Args& args, Report& report) {
  // Two bit-identical copies of the start state: A steps through the
  // trainer, B through the public layer calls the trainer makes. Every
  // update must leave both with the same weights, so the per-call times
  // below decompose the very program the untraced run measures.
  deepmd::DeepmdModel model_a = deepmd::clone_model(start);
  deepmd::DeepmdModel model_b = deepmd::clone_model(start);
  const std::vector<train::EnvPtr> envs =
      train::prepare_all(model_b, dataset.train);
  batch = std::min<i64>(batch, static_cast<i64>(envs.size()));
  const optim::KalmanConfig kcfg = kalman_config(batch);
  train::TrainOptions options;
  options.batch_size = batch;
  train::KalmanTrainer trainer(model_a, kcfg, options);
  optim::FlatParams flat_a(model_a.parameters());

  optim::FlatParams flat_b(model_b.parameters());
  optim::KalmanOptimizer kalman_b(
      optim::split_blocks(model_b.parameter_layout(), kcfg.blocksize), kcfg);
  std::vector<f64> weights_b(static_cast<std::size_t>(flat_b.size()));
  std::vector<f64> grad_b(weights_b.size());
  flat_b.gather(weights_b);
  const f64 qlr = std::sqrt(static_cast<f64>(batch));

  std::vector<f64> energy_ms, force_ms, grad_ms, flat_ms, update_ms, snap_ms;
  f64 trainer_s = 0.0, replay_s = 0.0;
  i64 mismatched_updates = 0;
  std::vector<f64> wa(weights_b.size()), wb(weights_b.size());
  auto weights_match = [&] {
    flat_a.gather(wa);
    flat_b.gather(wb);
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (!bitwise_equal(wa[i], wb[i])) return false;
    }
    return bitwise_equal(trainer.kalman()->lambda(), kalman_b.lambda()) &&
           bitwise_equal(trainer.kalman()->last_max_diag(),
                         kalman_b.last_max_diag());
  };
  // One update through the layer calls, mirroring KalmanTrainer::apply_fekf.
  auto replay = [&](auto&& measure, std::vector<f64>& measure_ms,
                    std::optional<f64> step_norm_cap) {
    ArenaScope arena;
    const f64 t0 = now_s();
    train::Measurement m = measure();
    const f64 t1 = now_s();
    std::vector<ag::Variable> g = ag::grad(m.m, flat_b.params());
    const f64 t2 = now_s();
    flat_b.gather_grads(g, grad_b);
    const f64 t3 = now_s();
    kalman_b.update(grad_b, qlr * m.abe, weights_b, step_norm_cap, m.abe);
    const f64 t4 = now_s();
    flat_b.scatter(weights_b);
    const f64 t5 = now_s();
    measure_ms.push_back(1e3 * (t1 - t0));
    grad_ms.push_back(1e3 * (t2 - t1));
    flat_ms.push_back(1e3 * (t3 - t2 + t5 - t4));
    update_ms.push_back(1e3 * (t4 - t3));
    replay_s += t5 - t0;
  };

  // One update on both copies. The copy that runs second finds the caches
  // the first one warmed, so the order alternates between updates.
  i64 updates = 0;
  auto update_both = [&](auto&& trainer_update, auto&& replay_update) {
    auto timed_trainer_update = [&] {
      const f64 t0 = now_s();
      trainer_update();
      trainer_s += now_s() - t0;
    };
    if (updates++ % 2 == 0) {
      timed_trainer_update();
      replay_update();
    } else {
      replay_update();
      timed_trainer_update();
    }
    if (!weights_match()) ++mismatched_updates;
  };

  const i64 steps = args.trace ? 2 : 1;
  Rng group_rng(args.seed ^ 0x9e3779b9ULL);
  const i64 natoms = envs.front()->natoms;
  std::vector<train::EnvPtr> batch_envs;
  for (i64 s = 0; s < steps; ++s) {
    batch_envs.clear();
    for (i64 i = 0; i < batch; ++i) {
      batch_envs.push_back(envs[static_cast<std::size_t>(
          (s * batch + i) % static_cast<i64>(envs.size()))]);
    }
    const std::span<const train::EnvPtr> span(batch_envs);
    update_both([&] { trainer.energy_update(span); },
                [&] {
                  replay(
                      [&] { return train::energy_measurement(model_b, span); },
                      energy_ms, /*step_norm_cap=*/0.0);
                });
    for (const std::vector<i64>& group :
         train::make_force_groups(natoms, kForceUpdatesPerStep, group_rng)) {
      update_both([&] { trainer.force_update(span, group); },
                  [&] {
                    replay(
                        [&] {
                          return train::force_measurement(
                              model_b, span, group, options.force_prefactor);
                        },
                        force_ms, std::nullopt);
                  });
    }
    const f64 t0 = now_s();
    const optim::KalmanState snapshot = kalman_b.state();
    snap_ms.push_back(1e3 * (now_s() - t0));
  }
  if (mismatched_updates > 0) {
    report.fail(std::to_string(mismatched_updates) +
                " replayed updates differ from KalmanTrainer");
  }
  if (!args.trace) return;

  const f64 p_bytes = static_cast<f64>(kalman_b.p_bytes());
  const f64 update = median(update_ms);
  report.add("train.energy_measurement_ms", median(energy_ms), "ms");
  report.add("train.force_measurement_ms", median(force_ms), "ms");
  report.add("autograd.grad_ms", median(grad_ms), "ms");
  report.add("optim.flat_params_ms", median(flat_ms), "ms");
  report.add("optim.kalman_update_ms", update, "ms");
  report.add("optim.p_mb", p_bytes / 1e6, "MB");
  // Computed, not counted: one read and one write of every P entry per
  // update over the measured update time.
  report.add("optim.update_gbps_computed", 2.0 * p_bytes / (update * 1e6),
             "GB/s");
  report.add("train.snapshot_ms", median(snap_ms), "ms");
  const f64 attributed =
      median(energy_ms) + kForceUpdatesPerStep * median(force_ms) +
      (1 + kForceUpdatesPerStep) *
          (median(grad_ms) + median(flat_ms) + update) +
      median(snap_ms);
  report.add("train.replay_step_ms", attributed, "ms");
  // The cost of timing the layer calls from outside: the replayed updates
  // over the trainer's own updates, on the same inputs, minus 1.
  report.add("bench.trace_overhead_frac", replay_s / trainer_s - 1.0,
             "fraction");
}

namespace {

void run_training(const TrainShape& shape, const Args& args, Report& report) {
  std::unique_ptr<TrainFixture> fx;
  std::unique_ptr<train::KalmanTrainer> trainer;
  StepLog log;
  SetupTimes times;
  const f64 setup_s = median_setup_s(kSetupReps, [&] {
    trainer.reset();  // release the previous P before allocating the next
    fx.reset();
    const Clock t0 = Clock::now();
    fx = make_train_fixture(shape, args, times);
    fx->options.observers = {&log};
    trainer = std::make_unique<train::KalmanTrainer>(*fx->model, fx->kcfg,
                                                     fx->options);
    return steady_s(t0, Clock::now());
  });

  std::unique_ptr<KernelCountScope> count;
  if (args.trace) {
    count = std::make_unique<KernelCountScope>();
    Workspace::reset_stats();
  }
  const f64 cpu0 = process_cpu_s();
  const f64 wall0 = now_s();
  log.arm(args.trace);
  const train::TrainResult result =
      trainer->train(fx->train_envs, fx->test_envs);
  const f64 busy_s = now_s() - wall0;
  const f64 cpu_s = process_cpu_s() - cpu0;
  count.reset();
  const f64 rss_mb = peak_rss_mb();
  trainer.reset();

  check_training(result, report);
  report.attempted = result.steps;
  report.failed = log.rollbacks;

  f64 to_target = -1.0;
  for (const train::EpochRecord& rec : result.history) {
    if (rec.train.total() <= kTargetRmse) {
      to_target = rec.cumulative_seconds;
      break;
    }
  }
  // The gated times: steal removed, then scaled to the reference host.
  const f64 factor = log.speed.factor();
  const std::vector<f64> steady(log.step_s.begin() + 1, log.step_s.end());
  const std::vector<f64> wall(log.step_wall_s.begin() + 1,
                              log.step_wall_s.end());
  const f64 p50_ms = 1e3 * percentile(steady, 0.5) * factor;
  std::printf(
      "steps: %zu timed, p50 %.1f ms wall, %.1f ms steal-free; host probe "
      "%.2f ms (reference %.1f ms)\n",
      steady.size(), 1e3 * percentile(wall, 0.5),
      1e3 * percentile(steady, 0.5), log.speed.median_ms(),
      HostSpeed::kReferenceMs);
  report.add("setup_s", setup_s, "s");
  report.add("work_rate_per_s", samples_per_s(log, shape.batch) / factor,
             "1/s");
  report.add("p50_ms", p50_ms, "ms");
  report.add("peak_rss_mb", rss_mb, "MB");
  report.add("train_s_to_target", to_target, "s");
  report.add("train_target_rmse", kTargetRmse, "eV+eV/A");
  report.add("train_rmse", result.history.back().test.total(), "eV+eV/A");
  report.add("train.steps", static_cast<f64>(result.steps), "count");
  report.add("failed_frac",
             static_cast<f64>(report.failed) /
                 static_cast<f64>(std::max<i64>(1, report.attempted)),
             "fraction");
  for (const train::EpochRecord& rec : result.history) {
    std::printf("epoch %lld t=%.2fs train E+F %.4f test E+F %.4f\n",
                static_cast<long long>(rec.epoch), rec.cumulative_seconds,
                rec.train.total(), rec.test.total());
  }

  if (args.trace) {
    add_setup_layer_metrics(times, report);
    add_train_step_metrics(log, result, report);
    report.add("parallel.cpu_util", cpu_s / busy_s, "cores");
  }
  // The replay is the correctness check of the training path, so it runs
  // untraced too (one step); traced, it also reports the per-call times.
  trace_train_layers(*fx->start, fx->dataset, shape.batch, args, report);
  if (args.trace) {
    add_unattributed(report);
    trace_serve_layers(*fx->model, fx->dataset.test, args.seed, report);
  }
}

}  // namespace

void run_fekf_cu_bs8(const Args& args, Report& report) {
  run_training(fekf_shape(), args, report);
}

void run_rlekf_cu_paper(const Args& args, Report& report) {
  run_training(rlekf_shape(), args, report);
}

}  // namespace fekf::perfbench
