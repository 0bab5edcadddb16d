// Resilience tests (DESIGN.md §10): full-state checkpoint round-trips,
// loud failure on truncated/corrupted files, bit-exact resume-equals-
// uninterrupted trajectories for every optimizer, sentinel rollback under
// deterministic fault injection, rank-failure re-sharding on the virtual
// cluster, and exception-safe training steps.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/fault.hpp"
#include "core/textio.hpp"
#include "data/dataset.hpp"
#include "dist/cluster.hpp"
#include "json_validator.hpp"
#include "obs/flight.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace fekf::train {
namespace {

struct TempFile {
  std::string path;
  // The pid suffix keeps concurrent ctest jobs of this binary (the plain
  // and _traced entries run in parallel under `ctest -j`) from clobbering
  // each other's checkpoint files.
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name + "." +
             std::to_string(static_cast<long long>(::getpid()))) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// Pins the process-wide injector to `spec` for the test's duration, then
/// restores the ambient FEKF_FAULT_SPEC arms on scope exit. In a normal
/// run the variable is unset, so this disarms exactly like the old
/// clear(); under the CI chaos leg it keeps the environment spec live for
/// the tests that deliberately run unguarded (Chaos.*) without explicit
/// arms leaking across tests.
struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec = {}) {
    FaultInjector::instance().configure(spec);
  }
  ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
};

deepmd::ModelConfig tiny_model() {
  deepmd::ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 16;
  return cfg;
}

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<deepmd::DeepmdModel> model;
  std::vector<EnvPtr> train_envs;
  std::vector<EnvPtr> test_envs;
};

Fixture make_fixture(i64 train_per_temp = 4, i64 test_per_temp = 1) {
  Fixture f;
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = train_per_temp;
  dcfg.test_per_temperature = test_per_temp;
  const data::SystemSpec& spec = data::get_system("Cu");
  f.dataset = data::build_dataset(spec, dcfg);
  f.model = std::make_unique<deepmd::DeepmdModel>(tiny_model(),
                                                  spec.num_types());
  f.model->fit_stats(f.dataset.train);
  f.train_envs = prepare_all(*f.model, f.dataset.train);
  f.test_envs = prepare_all(*f.model, f.dataset.test);
  return f;
}

std::vector<f64> gather_weights(deepmd::DeepmdModel& model) {
  optim::FlatParams flat(model.parameters());
  std::vector<f64> w(static_cast<std::size_t>(flat.size()));
  flat.gather(w);
  return w;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
}

TrainOptions base_options(i64 batch_size, i64 max_epochs) {
  TrainOptions opts;
  opts.batch_size = batch_size;
  opts.max_epochs = max_epochs;
  opts.eval_max_samples = 6;
  return opts;
}

optim::KalmanConfig base_kalman() {
  optim::KalmanConfig kcfg;
  kcfg.blocksize = 1024;
  return kcfg;
}

// ---------------------------------------------------------------------------
// Checkpoint file format
// ---------------------------------------------------------------------------

TEST(Checkpoint, SaveLoadSaveIsByteIdentical) {
  InjectorGuard guard;
  Fixture f = make_fixture();
  TempFile file("fekf_ckpt_roundtrip.ckpt");
  TrainOptions opts = base_options(2, 1);
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  TrainResult result = trainer.train(f.train_envs, {});
  ASSERT_GT(result.steps, 0);

  LoadedCheckpoint loaded = load_checkpoint(file.path);
  EXPECT_EQ(loaded.state.layout, f.model->parameter_layout());
  EXPECT_EQ(loaded.state.optimizer.kind, OptimizerCheckpoint::Kind::kKalman);
  EXPECT_TRUE(loaded.state.has_group_rng);
  EXPECT_EQ(loaded.state.steps % opts.checkpoint_every, 0);

  // Re-serializing the loaded state must reproduce the file byte-for-byte
  // (hex floats + deterministic token order = a true fixed point).
  TempFile copy("fekf_ckpt_roundtrip2.ckpt");
  save_checkpoint(loaded.state, loaded.model, copy.path);
  EXPECT_EQ(slurp(file.path), slurp(copy.path));
}

TEST(Checkpoint, TruncationAtEverySectionBoundaryFailsLoudly) {
  InjectorGuard guard;
  Fixture f = make_fixture();
  TempFile file("fekf_ckpt_trunc.ckpt");
  TrainOptions opts = base_options(2, 1);
  opts.max_steps = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  trainer.train(f.train_envs, {});

  const std::string full = slurp(file.path);
  ASSERT_FALSE(full.empty());
  TempFile cut("fekf_ckpt_trunc_cut.ckpt");
  // Cut the file at every section marker (and at the very start): each
  // truncation must be rejected by the header byte count, never parsed as
  // a shorter-but-valid checkpoint.
  i64 boundaries = 0;
  for (std::size_t pos = full.find("section"); pos != std::string::npos;
       pos = full.find("section", pos + 1)) {
    spit(cut.path, full.substr(0, pos));
    EXPECT_THROW(load_checkpoint(cut.path), Error) << "cut at byte " << pos;
    ++boundaries;
  }
  EXPECT_GE(boundaries, 9);  // counters..faults
  spit(cut.path, "");
  EXPECT_THROW(load_checkpoint(cut.path), Error);
}

TEST(Checkpoint, BitFlipIsCaughtByChecksum) {
  InjectorGuard guard;
  Fixture f = make_fixture();
  TempFile file("fekf_ckpt_flip.ckpt");
  TrainOptions opts = base_options(2, 1);
  opts.max_steps = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  trainer.train(f.train_envs, {});

  FaultInjector::corrupt_file(file.path);
  try {
    load_checkpoint(file.path);
    FAIL() << "corrupted checkpoint was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(file.path), std::string::npos);
  }
}

TEST(Checkpoint, RejectsWrongOptimizerKind) {
  InjectorGuard guard;
  Fixture f = make_fixture();
  TempFile file("fekf_ckpt_kind.ckpt");
  TrainOptions opts = base_options(2, 1);
  opts.max_steps = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  trainer.train(f.train_envs, {});

  // An Adam trainer must refuse to resume from a Kalman checkpoint.
  Fixture g = make_fixture();
  TrainOptions resume = base_options(2, 1);
  resume.resume_from = file.path;
  AdamTrainer adam(*g.model, {}, {}, resume);
  EXPECT_THROW(adam.train(g.train_envs, {}), Error);
}

TEST(Checkpoint, RejectsNonFiniteOrOutOfRangeKalmanState) {
  // A checkpoint whose checksum is valid but whose filter state the
  // optimizer could not run from (lambda outside (0, 1] or non-finite, a
  // non-finite P entry) must fail at load with one line naming the file
  // and the line of the offending token.
  InjectorGuard guard;
  Fixture f = make_fixture();
  TempFile file("fekf_ckpt_hostile.ckpt");
  TrainOptions opts = base_options(2, 1);
  opts.max_steps = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  trainer.train(f.train_envs, {});
  const LoadedCheckpoint good = load_checkpoint(file.path);
  ASSERT_EQ(good.state.optimizer.kind, OptimizerCheckpoint::Kind::kKalman);

  TempFile tampered("fekf_ckpt_hostile_tampered.ckpt");
  auto line_of = [](const std::string& text, const std::string& key) {
    const std::size_t pos = text.find("\n" + key + " ");
    EXPECT_NE(pos, std::string::npos) << key;
    return 2 + static_cast<i64>(std::count(
                   text.begin(),
                   text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
  };
  auto expect_rejected = [&](const TrainingCheckpoint& state,
                             const std::string& key, const char* label) {
    SCOPED_TRACE(label);
    save_checkpoint(state, good.model, tampered.path);
    const i64 line = line_of(slurp(tampered.path), key);
    try {
      load_checkpoint(tampered.path);
      ADD_FAILURE() << "load_checkpoint accepted " << label;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(tampered.path + ":" + std::to_string(line) + ":"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("kalman"), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  };

  // The untampered state re-saved under the new name still loads.
  save_checkpoint(good.state, good.model, tampered.path);
  EXPECT_NO_THROW(load_checkpoint(tampered.path));

  for (const f64 lambda : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -0.5,
                           1.5}) {
    TrainingCheckpoint state = good.state;
    state.optimizer.kalman.lambda = lambda;
    expect_rejected(state, "lambda",
                    ("lambda " + std::to_string(lambda)).c_str());
  }
  for (const f64 entry : {std::nan(""), HUGE_VAL}) {
    TrainingCheckpoint state = good.state;
    ASSERT_FALSE(state.optimizer.kalman.p.empty());
    ASSERT_GT(state.optimizer.kalman.p[0].size(), 3u);
    state.optimizer.kalman.p[0][3] = entry;
    expect_rejected(state, "block",
                    ("P entry " + std::to_string(entry)).c_str());
  }
}

TEST(Checkpoint, RejectsAsymmetricOrNonSquareKalmanP) {
  // The optimizer keeps only P's upper triangle, so a checkpoint block must
  // be a square, exactly symmetric n x n matrix. Tampered under a valid
  // checksum, an asymmetric pair or a non-square entry count fails at load
  // with one line naming the file, the line and the block.
  InjectorGuard guard;
  Fixture f = make_fixture();
  TempFile file("fekf_ckpt_asym.ckpt");
  TrainOptions opts = base_options(2, 1);
  opts.max_steps = 2;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  trainer.train(f.train_envs, {});

  const std::string text = slurp(file.path);
  const std::string body = text.substr(text.find('\n') + 1);
  const std::size_t begin = body.find("\nblock ") + 1;
  const std::size_t end = body.find('\n', begin);
  ASSERT_NE(end, std::string::npos);
  std::vector<std::string> tokens;
  {
    std::istringstream line(body.substr(begin, end - begin));
    for (std::string t; line >> t;) tokens.push_back(t);
  }
  ASSERT_EQ(tokens[0], "block");
  const auto count = static_cast<i64>(tokens.size()) - 2;
  const auto n = static_cast<i64>(std::lround(std::sqrt(count)));
  ASSERT_EQ(n * n, count);
  ASSERT_GE(n, 2);
  // Line of the block in the whole file: the header line, then the body.
  const i64 line = 2 + static_cast<i64>(std::count(
                           body.begin(),
                           body.begin() + static_cast<std::ptrdiff_t>(begin),
                           '\n'));

  TempFile tampered("fekf_ckpt_asym_tampered.ckpt");
  auto write_block = [&](const std::vector<std::string>& block) {
    std::string out;
    for (const std::string& t : block) out += (out.empty() ? "" : " ") + t;
    write_checksummed_file(tampered.path, "fekf-training-checkpoint-v1",
                           body.substr(0, begin) + out + body.substr(end));
  };
  auto expect_rejected = [&](const char* label, const std::string& needle) {
    SCOPED_TRACE(label);
    try {
      load_checkpoint(tampered.path);
      ADD_FAILURE() << "load_checkpoint accepted " << label;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(tampered.path + ":" + std::to_string(line) + ":"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("kalman P block 0"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  };

  // Re-checksummed but untouched, the block loads.
  write_block(tokens);
  EXPECT_NO_THROW(load_checkpoint(tampered.path));

  // P(0,1) takes the diagonal's value; P(1,0) keeps the old one.
  std::vector<std::string> asym = tokens;
  ASSERT_NE(asym[2], asym[2 + 1]);
  asym[2 + 1] = asym[2];
  write_block(asym);
  expect_rejected("asymmetric pair", "not symmetric: P(0,1)");

  // One entry short of n x n.
  std::vector<std::string> short_block = tokens;
  short_block.pop_back();
  short_block[1] = std::to_string(count - 1);
  write_block(short_block);
  expect_rejected("non-square block", "not a square");
}

// ---------------------------------------------------------------------------
// Kill-and-resume reproduces the uninterrupted trajectory bit-for-bit
// ---------------------------------------------------------------------------

TEST(Resume, FekfResumeMatchesUninterrupted) {
  InjectorGuard guard;
  TempFile file("fekf_resume_fekf.ckpt");
  const i64 bs = 2, epochs = 2;

  // Uninterrupted reference run.
  Fixture a = make_fixture();
  const i64 steps_per_epoch = static_cast<i64>(a.train_envs.size()) / bs;
  const i64 cut = steps_per_epoch + 1;  // mid second epoch
  KalmanTrainer ta(*a.model, base_kalman(), base_options(bs, epochs));
  TrainResult ra = ta.train(a.train_envs, a.test_envs);

  // "Killed" run: stop exactly at the checkpoint boundary.
  Fixture b = make_fixture();
  TrainOptions cut_opts = base_options(bs, epochs);
  cut_opts.checkpoint_every = cut;
  cut_opts.checkpoint_path = file.path;
  cut_opts.max_steps = cut;
  KalmanTrainer tb(*b.model, base_kalman(), cut_opts);
  TrainResult rb = tb.train(b.train_envs, b.test_envs);
  EXPECT_EQ(rb.steps, cut);

  // Resumed run: fresh model + trainer, state restored from the file.
  Fixture c = make_fixture();
  TrainOptions resume_opts = base_options(bs, epochs);
  resume_opts.resume_from = file.path;
  KalmanTrainer tc(*c.model, base_kalman(), resume_opts);
  TrainResult rc = tc.train(c.train_envs, c.test_envs);

  EXPECT_EQ(ra.steps, rc.steps);
  ASSERT_EQ(ra.history.size(), rc.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].epoch, rc.history[i].epoch);
    EXPECT_EQ(ra.history[i].train.energy_rmse,
              rc.history[i].train.energy_rmse);
    EXPECT_EQ(ra.history[i].train.force_rmse,
              rc.history[i].train.force_rmse);
    EXPECT_EQ(ra.history[i].test.energy_rmse,
              rc.history[i].test.energy_rmse);
  }
  const std::vector<f64> wa = gather_weights(*a.model);
  const std::vector<f64> wc = gather_weights(*c.model);
  ASSERT_EQ(wa.size(), wc.size());
  EXPECT_EQ(wa, wc);  // bit-exact
}

TEST(Resume, NaiveEkfResumeMatchesUninterrupted) {
  InjectorGuard guard;
  TempFile file("fekf_resume_naive.ckpt");
  const i64 bs = 2;

  Fixture a = make_fixture(2);
  KalmanTrainer ta(*a.model, base_kalman(), base_options(bs, 1),
                   EkfMode::kNaive);
  ta.train(a.train_envs, {});

  Fixture b = make_fixture(2);
  TrainOptions cut_opts = base_options(bs, 1);
  cut_opts.checkpoint_every = 1;
  cut_opts.checkpoint_path = file.path;
  cut_opts.max_steps = 1;
  KalmanTrainer tb(*b.model, base_kalman(), cut_opts, EkfMode::kNaive);
  tb.train(b.train_envs, {});

  Fixture c = make_fixture(2);
  TrainOptions resume_opts = base_options(bs, 1);
  resume_opts.resume_from = file.path;
  KalmanTrainer tc(*c.model, base_kalman(), resume_opts, EkfMode::kNaive);
  tc.train(c.train_envs, {});

  EXPECT_EQ(gather_weights(*a.model), gather_weights(*c.model));
}

TEST(Resume, AdamResumeMatchesUninterrupted) {
  InjectorGuard guard;
  TempFile file("fekf_resume_adam.ckpt");
  const i64 bs = 2;
  optim::AdamConfig acfg;
  acfg.decay_steps = 100;

  Fixture a = make_fixture(2);
  AdamTrainer ta(*a.model, acfg, {}, base_options(bs, 2));
  TrainResult ra = ta.train(a.train_envs, {});

  Fixture b = make_fixture(2);
  TrainOptions cut_opts = base_options(bs, 2);
  cut_opts.checkpoint_every = 2;
  cut_opts.checkpoint_path = file.path;
  cut_opts.max_steps = 2;
  AdamTrainer tb(*b.model, acfg, {}, cut_opts);
  tb.train(b.train_envs, {});

  Fixture c = make_fixture(2);
  TrainOptions resume_opts = base_options(bs, 2);
  resume_opts.resume_from = file.path;
  AdamTrainer tc(*c.model, acfg, {}, resume_opts);
  TrainResult rc = tc.train(c.train_envs, {});

  EXPECT_EQ(ra.steps, rc.steps);
  EXPECT_EQ(gather_weights(*a.model), gather_weights(*c.model));
}

// ---------------------------------------------------------------------------
// Sentinels + fault injection
// ---------------------------------------------------------------------------

TEST(Sentinel, NanGradInjectionRollsBackAndRecovers) {
  auto run_injected = []() {
    InjectorGuard guard("nan_grad@step=3");
    Fixture f = make_fixture();
    KalmanTrainer trainer(*f.model, base_kalman(), base_options(2, 2));
    TrainResult result = trainer.train(f.train_envs, {});
    // The poisoned step was detected, rolled back, and logged...
    EXPECT_EQ(result.faults.count("nonfinite_signal"), 1);
    EXPECT_EQ(result.faults.events.at(0).step, 3);
    EXPECT_EQ(result.faults.events.at(0).action, "rollback_skip_batch");
    // ...and training carried on to finite metrics on clean weights.
    EXPECT_TRUE(std::isfinite(result.final_train.energy_rmse));
    EXPECT_TRUE(std::isfinite(result.final_train.force_rmse));
    EXPECT_GT(result.recovery_seconds, 0.0);
    return gather_weights(*f.model);
  };
  // Recovery itself is deterministic: identical runs, identical weights.
  EXPECT_EQ(run_injected(), run_injected());
}

TEST(Sentinel, NanGradFaultDumpsFlightTrace) {
  // The black-box contract end to end: arm the flight recorder, inject a
  // poisoned gradient, and the divergence sentinel's FaultLog record must
  // flush a loadable Chrome trace with the recent spans and the fault's
  // kind/action — with no FEKF_* tracing enabled.
  InjectorGuard guard("nan_grad@step=3");
  Fixture f = make_fixture();
  TempFile file("fekf_flight_nan_grad.json");
  auto& flight = obs::FlightRecorder::instance();
  flight.arm_path(file.path);

  KalmanTrainer trainer(*f.model, base_kalman(), base_options(2, 2));
  TrainResult result = trainer.train(f.train_envs, {});
  const i64 dumps = flight.dump_count();
  flight.disarm();
  flight.clear();

  EXPECT_EQ(result.faults.count("nonfinite_signal"), 1);
  ASSERT_GE(dumps, 1) << "fault was logged but no flight dump fired";

  const std::string json = slurp(file.path);
  EXPECT_TRUE(fekf::testutil::JsonValidator(json).valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dumpReason\""), std::string::npos);
  EXPECT_NE(json.find("nonfinite_signal"), std::string::npos);
  EXPECT_NE(json.find("rollback_skip_batch"), std::string::npos);
  EXPECT_NE(json.find("\"flightDropped\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  // The ring held the spans leading up to the fault: the training step
  // envelope and the forward pass must both appear in the black box.
  EXPECT_NE(json.find("\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"forward\""), std::string::npos);
}

TEST(Sentinel, AdamNanGradInjectionRecovers) {
  InjectorGuard guard("nan_grad@step=2");
  Fixture f = make_fixture();
  optim::AdamConfig acfg;
  acfg.decay_steps = 100;
  AdamTrainer trainer(*f.model, acfg, {}, base_options(2, 1));
  TrainResult result = trainer.train(f.train_envs, {});
  EXPECT_EQ(result.faults.count("nonfinite_signal"), 1);
  EXPECT_EQ(result.faults.events.at(0).step, 2);
  EXPECT_TRUE(std::isfinite(result.final_train.energy_rmse));
}

TEST(Sentinel, CorruptCkptInjectionIsRecordedAndRejectedAtLoad) {
  InjectorGuard guard("corrupt_ckpt");
  Fixture f = make_fixture();
  TempFile file("fekf_ckpt_injected_corrupt.ckpt");
  TrainOptions opts = base_options(2, 1);
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  opts.max_steps = 2;  // exactly one checkpoint gets written (and hit)
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  TrainResult result = trainer.train(f.train_envs, {});
  EXPECT_EQ(result.faults.count("corrupt_ckpt"), 1);
  EXPECT_THROW(load_checkpoint(file.path), Error);
}

TEST(Sentinel, RankFailureReshardsAndCompletes) {
  InjectorGuard guard("rank_fail@step=2");
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 2;
  dcfg.test_per_temperature = 1;
  const data::SystemSpec& spec = data::get_system("Cu");
  data::Dataset ds = data::build_dataset(spec, dcfg);
  deepmd::DeepmdModel model(tiny_model(), spec.num_types());
  model.fit_stats(ds.train);
  auto envs = prepare_all(model, ds.train);

  dist::DistributedConfig cfg;
  cfg.ranks = 3;
  cfg.options = base_options(3, 1);
  cfg.kalman = base_kalman();
  dist::DistributedResult result =
      dist::train_fekf_distributed(model, envs, {}, cfg);

  EXPECT_EQ(result.surviving_ranks, 2);
  EXPECT_EQ(result.comm.reshard_events, 1);
  EXPECT_GT(result.comm.reshard_bytes, 0);
  EXPECT_GT(result.comm.reshard_seconds, 0.0);
  // The injection silences the rank; the heartbeat detector (default
  // miss_limit = 1) evicts it at the same step boundary.
  EXPECT_EQ(result.train.faults.count("rank_fail"), 1);
  EXPECT_EQ(result.train.faults.count("rank_evict"), 1);
  EXPECT_EQ(result.comm.evictions, 1);
  EXPECT_GT(result.comm.detection_seconds, 0.0);
  EXPECT_TRUE(std::isfinite(result.train.final_train.energy_rmse));
}

// ---------------------------------------------------------------------------
// Exception-safe steps (worker throws mid-batch)
// ---------------------------------------------------------------------------

/// A train set whose LAST env has a force label of the wrong shape: the
/// forward-pass worker that picks it up throws from inside the thread
/// pool. Placed past eval_max_samples so evaluation never touches it.
std::vector<EnvPtr> with_poisoned_tail(const std::vector<EnvPtr>& envs) {
  auto poisoned = std::make_shared<deepmd::EnvData>(*envs.back());
  poisoned->force_label = Tensor::zeros(poisoned->natoms - 1, 3);
  std::vector<EnvPtr> out = envs;
  out.back() = std::move(poisoned);
  return out;
}

TEST(Sentinel, WorkerExceptionRollsBackAndNextStepTrains) {
  InjectorGuard guard;
  Fixture f = make_fixture();
  std::vector<EnvPtr> envs = with_poisoned_tail(f.train_envs);
  optim::AdamConfig acfg;
  acfg.decay_steps = 100;
  TrainOptions opts = base_options(1, 2);
  opts.eval_max_samples = 2;
  AdamTrainer trainer(*f.model, acfg, {}, opts);
  TrainResult result = trainer.train(envs, {});
  // The poisoned sample is drawn once per epoch; each hit is rolled back
  // and training continues through the remaining steps of both epochs.
  EXPECT_EQ(result.faults.count("worker_exception"), 2);
  EXPECT_EQ(result.steps, 2 * static_cast<i64>(envs.size()));
  EXPECT_EQ(result.history.size(), 2u);
  EXPECT_TRUE(std::isfinite(result.final_train.energy_rmse));
  for (const f64 w : gather_weights(*f.model)) {
    ASSERT_TRUE(std::isfinite(w));
  }
}

TEST(Sentinel, SentinelsOffRethrowsWorkerException) {
  InjectorGuard guard;
  Fixture f = make_fixture();
  std::vector<EnvPtr> envs = with_poisoned_tail(f.train_envs);
  TrainOptions opts = base_options(1, 1);
  opts.eval_max_samples = 2;
  opts.sentinels = false;
  optim::AdamConfig acfg;
  acfg.decay_steps = 100;
  AdamTrainer trainer(*f.model, acfg, {}, opts);
  EXPECT_THROW(trainer.train(envs, {}), Error);
}

// ---------------------------------------------------------------------------
// Config validation (finite-value checks with clear diagnostics)
// ---------------------------------------------------------------------------

TEST(Validation, TrainOptionsRejectBadValues) {
  TrainOptions opts;
  opts.batch_size = 0;
  EXPECT_THROW(opts.validate(), Error);
  opts = {};
  opts.force_prefactor = -1.0;
  EXPECT_THROW(opts.validate(), Error);
  opts = {};
  opts.checkpoint_every = 5;  // no checkpoint_path
  EXPECT_THROW(opts.validate(), Error);
  opts = {};
  opts.snapshot_every = 0;
  EXPECT_THROW(opts.validate(), Error);
  opts = {};
  EXPECT_NO_THROW(opts.validate());
}

TEST(Validation, TrainerConstructorsValidate) {
  Fixture f = make_fixture(2);
  TrainOptions opts = base_options(0, 1);  // batch_size 0
  EXPECT_THROW(KalmanTrainer(*f.model, base_kalman(), opts), Error);
  EXPECT_THROW(AdamTrainer(*f.model, {}, {}, opts), Error);
}

TEST(Validation, InterconnectRejectsBadBandwidth) {
  dist::InterconnectModel net;
  net.bandwidth_gbps = 0.0;
  EXPECT_THROW(net.validate(), Error);
  net = {};
  net.latency_s = -1.0;
  EXPECT_THROW(net.validate(), Error);
  net = {};
  EXPECT_NO_THROW(net.validate());
}

// ---------------------------------------------------------------------------
// Ambient chaos (the CI *_chaos leg re-runs this binary under a canned
// FEKF_FAULT_SPEC; in a normal run the variable is unset and this trains
// fault-free)
// ---------------------------------------------------------------------------

TEST(Chaos, AmbientSpecTrainsToFiniteMetrics) {
  // Deliberately unguarded: arm whatever the environment provides, fresh,
  // so the run is deterministic regardless of which tests ran before.
  FaultInjector::instance().configure_from_env();
  Fixture f = make_fixture();
  TempFile file("fekf_chaos_ambient.ckpt");
  TrainOptions opts = base_options(2, 2);
  opts.checkpoint_every = 2;
  opts.checkpoint_path = file.path;
  KalmanTrainer trainer(*f.model, base_kalman(), opts);
  TrainResult result = trainer.train(f.train_envs, {});
  EXPECT_TRUE(std::isfinite(result.final_train.energy_rmse));
  for (const f64 w : gather_weights(*f.model)) {
    ASSERT_TRUE(std::isfinite(w));
  }
  // When the chaos spec arms these kinds, their recovery paths must have
  // actually run — the leg is not allowed to be a silent no-op.
  const char* spec = std::getenv("FEKF_FAULT_SPEC");
  const std::string armed = spec != nullptr ? spec : "";
  if (armed.find("nan_grad") != std::string::npos) {
    EXPECT_GE(result.faults.count("nonfinite_signal"), 1);
  }
  if (armed.find("corrupt_ckpt") != std::string::npos) {
    EXPECT_GE(result.faults.count("corrupt_ckpt"), 1);
  }
  FaultInjector::instance().configure("");
}

}  // namespace
}  // namespace fekf::train
