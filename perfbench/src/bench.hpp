// Shared plumbing of the repository benchmark (perfbench/README.md).
//
// A workload fills one Report. Every metric it measures is printed as a
// `metric <name> <value> <unit>` line and goes into one final JSON line;
// perfbench/run.py narrows that line to the names BENCHMARK.json lists for
// the untraced (`end_to_end`) or traced (`per_layer`) run.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "data/dataset.hpp"
#include "md/system.hpp"
#include "serve/batching.hpp"
#include "serve/registry.hpp"
#include "train/trainer.hpp"

namespace fekf::perfbench {

struct Args {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  /// Scale divisor for the self-test: 1 is the benchmark, larger shrinks
  /// data, step budgets and rate windows so every workload finishes fast.
  i64 tiny = 1;
};

struct Metric {
  std::string name;
  f64 value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(const std::string& name, f64 value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A failed correctness check: the run prints its result with
  /// `correct: false` and exits non-zero.
  void fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

inline f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile, p in [0, 1].
f64 percentile(std::vector<f64> values, f64 p);
f64 median(std::vector<f64> values);
f64 mean(const std::vector<f64>& values);

/// The highest of p99/p90/p50 that leaves at least ten samples beyond it,
/// so a tail is never read off fewer than ten observations.
struct Tail {
  f64 p = 0.5;
  f64 value = 0.0;
};
Tail highest_supported_tail(const std::vector<f64>& values);

/// Peak resident set of this process so far (VmHWM), in MB.
f64 peak_rss_mb();
/// User + system CPU seconds of this process so far.
f64 process_cpu_s();
/// CPU seconds the hypervisor has taken from this machine's vCPUs so far
/// (the `steal` column of /proc/stat, summed over CPUs); 0 where the host
/// reports none.
f64 host_steal_s();

/// Wall clock, process CPU time and host steal at one instant.
///
/// On a shared virtual machine the hypervisor runs other tenants on this
/// machine's vCPUs. The stolen time stretches the wall time of a training
/// step by up to 1.5x between runs, while the step's process CPU time stays
/// within a few percent. steady_s() removes the stolen share of the wall
/// time, wall x cpu / (cpu + steal): the wall time the same work takes on a
/// host that steals nothing, where it equals the plain wall time.
struct Clock {
  f64 wall = 0.0;
  f64 cpu = 0.0;
  f64 steal = 0.0;
  static Clock now();
};
f64 steady_s(const Clock& from, const Clock& to);

/// Host speed probe. Besides stealing, a shared host slows this machine's
/// cores by 10-25% for minutes at a time (clock and shared-core changes),
/// which moves every timing of a run alike. The probe times a fixed loop
/// that uses no library code on the calling thread's CPU clock. Set-up and
/// training steps are probed on the thread that drives them, after each
/// set-up or step, and their gated times are scaled by factor() into
/// reference-host time. Serving figures are not: that work runs on the
/// evaluator's worker, whose core the probe cannot follow.
class HostSpeed {
 public:
  /// About the loop's time on the host the benchmark was sized on, a
  /// 4-core Xeon KVM guest at its faster spells.
  static constexpr f64 kReferenceMs = 25.0;

  /// Runs the loop once and records its CPU time.
  void probe();
  f64 median_ms() const { return median(probe_ms_); }
  /// Reference-host milliseconds per millisecond here: multiply a time,
  /// divide a rate.
  f64 factor() const { return kReferenceMs / median_ms(); }

 private:
  std::vector<f64> probe_ms_;
  f64 checksum_ = 0.0;
};

/// Runs `start`, which starts threads, so that those threads run on one CPU
/// and the calling thread on another for the rest of the process. The guest
/// scheduler tends to wake a thread on the CPU of the thread that woke it,
/// so a worker and the thread feeding it sometimes shared one vCPU and
/// sometimes not, and serving throughput differed by 30% between runs. A
/// plain call of `start` when fewer than two CPUs are allowed.
void start_apart(const std::function<void()>& start);

/// Median over `reps` calls of `setup`, which returns its own steal-free
/// seconds, scaled to the reference host by probes run after each call on
/// the thread that did the set-up.
template <typename F>
f64 median_setup_s(i64 reps, F&& setup) {
  std::vector<f64> times;
  HostSpeed speed;
  for (i64 r = 0; r < reps; ++r) {
    times.push_back(setup());
    speed.probe();
    speed.probe();
  }
  std::printf("setup: median %.4f s steal-free; host probe %.2f ms\n",
              median(times), speed.median_ms());
  return median(times) * speed.factor();
}

/// Cu FCC walker cells (n x n x n conventional cells) with thermal-scale
/// jitter, the exploration inputs an online-learning walker submits.
std::vector<md::Snapshot> walker_cells(i32 n, i64 count, u64 seed);

bool bitwise_equal(f64 a, f64 b);

// --- training side (train_workloads.cpp) -----------------------------------

/// Per-repetition timings of the set-up layers.
struct SetupTimes {
  std::vector<f64> data_build_s;
  std::vector<f64> fit_stats_s;
};

struct TrainShape {
  i64 batch = 8;
  deepmd::ModelConfig model;
  i64 train_per_temperature = 8;  ///< Cu samples five temperatures
  i64 test_per_temperature = 2;
  i64 eval_samples = 16;
  /// Expected seconds per epoch; sets the epoch budget from --seconds.
  f64 nominal_epoch_s = 7.0;
};

struct TrainFixture {
  data::Dataset dataset;
  std::unique_ptr<deepmd::DeepmdModel> model;
  /// Bit-exact copy of the model before training, for the replay.
  std::unique_ptr<deepmd::DeepmdModel> start;
  std::vector<train::EnvPtr> train_envs;
  std::vector<train::EnvPtr> test_envs;
  optim::KalmanConfig kcfg;
  train::TrainOptions options;
};

/// Records each step's time (from the previous step or evaluation to this
/// step's observers, so synchronous publishing counts) and, when counting,
/// the exact kernel launches and arena allocations of steps only. After
/// each step it probes the host speed, outside the step's time.
class StepLog final : public train::TrainObserver {
 public:
  void arm(bool count);
  void on_step(const train::StepEvent& event) override;
  void on_eval(const train::EpochRecord& record) override;

  std::vector<f64> step_s;       ///< steady_s() of each step
  std::vector<f64> step_wall_s;  ///< plain wall time of each step
  std::vector<f64> eval_s;
  HostSpeed speed;
  i64 rollbacks = 0;
  i64 launches = 0;
  i64 allocs = 0;

 private:
  bool count_ = false;
  Clock mark_;
  i64 mark_launches_ = 0;
  i64 mark_allocs_ = 0;
};

deepmd::ModelConfig bench_width_config();
TrainShape fekf_shape();
data::Dataset build_cu_dataset(i64 train_per_temperature,
                               i64 test_per_temperature, u64 seed,
                               SetupTimes& times);
std::unique_ptr<TrainFixture> make_train_fixture(const TrainShape& shape,
                                                 const Args& args,
                                                 SetupTimes& times);
f64 samples_per_s(const StepLog& log, i64 batch);
/// The run ended on an epoch evaluation with a finite, positive RMSE.
void check_training(const train::TrainResult& result, Report& report);
void add_setup_layer_metrics(const SetupTimes& times, Report& report);
void add_train_step_metrics(const StepLog& log,
                            const train::TrainResult& result, Report& report);
/// A short real training run from `start`, for the step-level layer
/// metrics of a workload that does not train.
void trace_train_steps(const deepmd::DeepmdModel& start,
                       const data::Dataset& dataset, i64 batch,
                       const Args& args, Report& report);
/// train.unattributed_ms: the step p50 minus the replayed per-call times.
void add_unattributed(Report& report);
/// Replays training steps from `start` through the public layer calls and
/// checks each update bit for bit against KalmanTrainer. Traced, it also
/// reports the per-call times.
void trace_train_layers(const deepmd::DeepmdModel& start,
                        const data::Dataset& dataset, i64 batch,
                        const Args& args, Report& report);

// --- serving side (serve_workloads.cpp) ------------------------------------

struct LoadResult {
  i64 sent = 0;
  i64 ok = 0;
  i64 failed = 0;
  std::vector<f64> latency_ms;  ///< completion minus due time
  std::vector<f64> late_ms;     ///< generator lateness at submit
  std::vector<f64> submit_us;   ///< time inside submit()
  std::vector<f64> queue_ms;
  std::vector<f64> batch_eval_ms;
  std::vector<f64> batch_size;
  f64 drain_s = 0.0;  ///< last completion after the last due time
  struct Sample {
    i64 index = 0;
    serve::EvalResult result;
  };
  std::vector<Sample> samples;  ///< kept for the bit-exact check
};

/// Open-loop Poisson load at `rate` for `window_s`, each request timed from
/// its due time.
LoadResult open_loop(serve::BatchingEvaluator& evaluator,
                     const std::vector<md::Snapshot>& cells, f64 rate,
                     f64 window_s, u64 seed);
/// Adds the counts and samples of `from` to `into` (not its check samples).
void append(LoadResult& into, const LoadResult& from);
/// Sampled results that differ from serve::evaluate_with.
i64 check_samples(const LoadResult& load, const serve::ModelRegistry& registry,
                  const std::vector<md::Snapshot>& cells);
void add_queue_metrics(const LoadResult& load, Report& report);
/// Times DeepmdModel::prepare, serve::evaluate_prepared at `batch` and
/// ModelRegistry::publish_copy directly.
void trace_serve_calls(const deepmd::DeepmdModel& model,
                       const std::vector<md::Snapshot>& cells, i64 batch,
                       Report& report);
/// The serving layers for a workload that does not serve: a short
/// open-loop burst plus trace_serve_calls, on the workload's own model.
void trace_serve_layers(const deepmd::DeepmdModel& model,
                        const std::vector<md::Snapshot>& cells, u64 seed,
                        Report& report);

// Workload entry points.
void run_fekf_cu_bs8(const Args& args, Report& report);
void run_rlekf_cu_paper(const Args& args, Report& report);
void run_serve_cu32(const Args& args, Report& report);

}  // namespace fekf::perfbench
