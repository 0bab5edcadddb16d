// Checkpoint round-trip tests: a saved-and-reloaded model must reproduce
// the original's predictions exactly (bit-level via hex-float encoding),
// and malformed files must be rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <unistd.h>

#include "core/textio.hpp"
#include "data/dataset.hpp"
#include "deepmd/serialize.hpp"
#include "md/langevin.hpp"
#include "serve/potential.hpp"
#include "train/trainer.hpp"

namespace fekf::deepmd {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

data::Dataset small_dataset(const char* system = "NaCl") {
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = 3;
  dcfg.test_per_temperature = 1;
  return data::build_dataset(data::get_system(system), dcfg);
}

void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

ModelConfig small_config() {
  ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 12;
  return cfg;
}

TEST(Serialize, RoundTripReproducesPredictions) {
  data::Dataset ds = small_dataset();
  DeepmdModel model(small_config(), 2);
  model.fit_stats(ds.train);
  // Perturb weights away from init so the round trip is non-trivial.
  {
    auto envs = train::prepare_all(model, ds.train);
    train::TrainOptions opts;
    opts.batch_size = 2;
    opts.max_epochs = 1;
    opts.eval_max_samples = 3;
    optim::KalmanConfig kcfg;
    kcfg.blocksize = 512;
    train::KalmanTrainer trainer(model, kcfg, opts);
    trainer.train(envs, {});
  }

  TempFile file("fekf_roundtrip.model");
  save_model(model, file.path);
  DeepmdModel loaded = load_model(file.path);

  EXPECT_EQ(loaded.num_parameters(), model.num_parameters());
  EXPECT_EQ(loaded.sel(), model.sel());

  for (const md::Snapshot& snap : ds.test) {
    auto env_a = model.prepare(snap);
    auto env_b = loaded.prepare(snap);
    auto pa = model.predict(env_a, true);
    auto pb = loaded.predict(env_b, true);
    EXPECT_EQ(pa.energy.item(), pb.energy.item());
    for (i64 i = 0; i < pa.forces.numel(); ++i) {
      EXPECT_EQ(pa.forces.value().data()[i], pb.forces.value().data()[i]);
    }
  }
}

TEST(Serialize, RejectsGarbage) {
  TempFile file("fekf_garbage.model");
  write_text(file.path, "not a model\n");
  EXPECT_THROW(load_model(file.path), Error);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(load_model("/nonexistent/path/model.txt"), Error);
}

TEST(Serialize, RejectsTruncatedFile) {
  data::Dataset ds = small_dataset();
  DeepmdModel model(small_config(), 2);
  model.fit_stats(ds.train);
  TempFile file("fekf_truncated.model");
  save_model(model, file.path);
  // Truncate to half.
  std::FILE* f = std::fopen(file.path.c_str(), "r+");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  FEKF_CHECK(::truncate(file.path.c_str(), size / 2) == 0, "truncate failed");
  EXPECT_THROW(load_model(file.path), Error);
}

TEST(Serialize, MalformedDiagnosticNamesFileAndLine) {
  // A malformed model file must fail with ONE line naming the file, the
  // 1-based line number, and what was expected (DESIGN.md §10).
  TempFile file("fekf_diag.model");
  write_text(file.path, "definitely not a model\n");
  try {
    load_model(file.path);
    FAIL() << "load_model accepted garbage";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file.path + ":1:"), std::string::npos) << what;
    EXPECT_NE(what.find("fekf-deepmd-model-v1"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }

  // Tamper with a token in the middle of an otherwise valid file: the
  // diagnostic must point at the tampered token's line.
  data::Dataset ds = small_dataset();
  DeepmdModel model(small_config(), 2);
  model.fit_stats(ds.train);
  save_model(model, file.path);
  std::string text = read_file(file.path);
  const std::size_t pos = text.find("residual_std");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 12, "resADual_std");
  const i64 line =
      1 + static_cast<i64>(std::count(text.begin(), text.begin() +
                                          static_cast<std::ptrdiff_t>(pos),
                                      '\n'));
  write_text(file.path, text);
  try {
    load_model(file.path);
    FAIL() << "load_model accepted a tampered token";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(file.path + ":" + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("residual_std"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(Serialize, InvalidConfigLineNamesFileAndLine) {
  // Every out-of-range architecture field on the `config` line fails at
  // load with one line naming the file and that line, never later at the
  // first prepare() or predict().
  data::Dataset ds = small_dataset();
  DeepmdModel model(small_config(), 2);
  model.fit_stats(ds.train);
  TempFile file("fekf_config.model");
  save_model(model, file.path);
  const std::string text = read_file(file.path);
  const std::size_t begin = text.find("\nconfig ") + 1;
  const std::size_t end = text.find('\n', begin);
  ASSERT_NE(end, std::string::npos);
  const i64 line = 1 + static_cast<i64>(std::count(
                           text.begin(), text.begin() + begin, '\n'));

  // {config line, field the diagnostic names}; nullptr marks the valid
  // line every other row tampers one token of.
  const std::pair<const char*, const char*> rows[] = {
      // config num_types rcut rcut_smth embed axis fit fusion
      {"config 2 5 2.5 8 4 12 2", nullptr},
      {"config 2 5 2.5 8 4 12 3", "fusion"},
      {"config 2 5 2.5 8 4 12 9", "fusion"},
      {"config 2 5 2.5 8 4 12 -7", "fusion"},
      {"config 2 nan 2.5 8 4 12 2", "rcut"},
      {"config 2 inf 2.5 8 4 12 2", "rcut"},
      {"config 2 -5 2.5 8 4 12 2", "rcut"},
      {"config 2 0 2.5 8 4 12 2", "rcut"},
      {"config 2 5 -1 8 4 12 2", "rcut_smth"},
      {"config 2 5 5 8 4 12 2", "rcut_smth"},
      {"config 2 5 nan 8 4 12 2", "rcut_smth"},
      {"config 2 5 2.5 0 4 12 2", "embed_width"},
      {"config 2 5 2.5 8 0 12 2", "axis_neurons"},
      {"config 2 5 2.5 8 9 12 2", "axis_neurons"},
      {"config 2 5 2.5 8 4 -3 2", "fitting_width"},
  };
  for (const auto& [config, field] : rows) {
    write_text(file.path, text.substr(0, begin) + config + text.substr(end));
    if (field == nullptr) {
      EXPECT_NO_THROW(load_model(file.path)) << config;
      continue;
    }
    try {
      load_model(file.path);
      ADD_FAILURE() << "loaded " << config;
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file.path + ":" + std::to_string(line) + ":"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(field), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
}

TEST(Serialize, HostileCountNamesFileAndLine) {
  // A list count, or network widths, the rest of the file cannot hold fail
  // at load with one line naming the file and the line, before anything is
  // allocated for them (not as std::length_error or std::bad_alloc); so
  // does a sel list whose length is not num_types.
  data::Dataset ds = small_dataset();
  DeepmdModel model(small_config(), 2);
  model.fit_stats(ds.train);
  TempFile file("fekf_count.model");
  save_model(model, file.path);
  const std::string text = read_file(file.path);

  // {line key, which token after it (1-based), value, in the diagnostic}.
  // The config line is: config <num_types> <rcut> <rcut_smth> <embed_width>
  // <axis_neurons> <fitting_width> <fusion>.
  const std::string two62 = "4611686018427387904";
  const std::tuple<std::string, int, std::string, std::string> rows[] = {
      {"sel", 1, two62, "count " + two62},
      {"sel", 1, "1099511627776", "count 1099511627776"},
      {"davg", 1, "1099511627776", "count 1099511627776"},
      {"config", 6, "1000000", "fitting_width 1000000"},
      {"config", 4, "200000", "embed_width 200000"},
      {"config", 6, two62, "overflows"},
      {"config", 4, two62, "overflows"},
      {"sel", 1, "1", "sel has 1 entries, num_types is 2"},
  };
  for (const auto& [key, token, value, expect] : rows) {
    SCOPED_TRACE(key + " #" + std::to_string(token) + " " + value);
    const std::size_t begin = text.find("\n" + key + " ") + 1;
    ASSERT_NE(begin, 0u);
    std::size_t token_begin = begin + key.size() + 1;
    for (int t = 1; t < token; ++t) {
      token_begin = text.find(' ', token_begin) + 1;
    }
    const std::size_t token_end = text.find_first_of(" \n", token_begin);
    const i64 line = 1 + static_cast<i64>(std::count(
                             text.begin(), text.begin() + begin, '\n'));
    write_text(file.path, text.substr(0, token_begin) + value +
                              text.substr(token_end));
    try {
      load_model(file.path);
      ADD_FAILURE() << "loaded it";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file.path + ":" + std::to_string(line) + ":"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(expect), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
}

TEST(ModelPotential, MatchesDirectPrediction) {
  data::Dataset ds = small_dataset("Cu");
  DeepmdModel model(small_config(), 1);
  model.fit_stats(ds.train);
  serve::ModelPotential potential(model);
  const md::Snapshot& snap = ds.test.front();

  md::EnergyForces ef =
      md::evaluate(potential, snap.positions, snap.types, snap.cell);
  auto env = model.prepare(snap);
  auto pred = model.predict(env, true);
  EXPECT_NEAR(ef.energy, pred.energy.item(), 1e-4);
  // Forces in original atom order must match the sorted prediction mapped
  // through the permutation.
  for (i64 s = 0; s < env->natoms; ++s) {
    const i64 orig = env->perm[static_cast<std::size_t>(s)];
    EXPECT_NEAR(ef.forces[static_cast<std::size_t>(orig)].x,
                pred.forces.value().at(s, 0), 1e-5);
    EXPECT_NEAR(ef.forces[static_cast<std::size_t>(orig)].y,
                pred.forces.value().at(s, 1), 1e-5);
    EXPECT_NEAR(ef.forces[static_cast<std::size_t>(orig)].z,
                pred.forces.value().at(s, 2), 1e-5);
  }
}

TEST(ModelPotential, DrivesStableDynamics) {
  // Even an untrained model defines a smooth field; a few Langevin steps
  // must stay finite and keep atoms separated.
  data::Dataset ds = small_dataset("Cu");
  DeepmdModel model(small_config(), 1);
  model.fit_stats(ds.train);
  serve::ModelPotential potential(model);

  md::System sys;
  const md::Snapshot& snap = ds.train.front();
  sys.cell = snap.cell;
  sys.positions = snap.positions;
  sys.types = snap.types;
  sys.masses.assign(snap.positions.size(), 63.546);
  md::LangevinIntegrator integrator(potential, {1.0, 300.0, 0.1});
  Rng rng(3);
  integrator.initialize_velocities(sys, rng);
  const f64 e = integrator.run(sys, 5, rng);
  EXPECT_TRUE(std::isfinite(e));
  for (const md::Vec3& p : sys.positions) {
    EXPECT_TRUE(std::isfinite(p.x + p.y + p.z));
  }
}

}  // namespace
}  // namespace fekf::deepmd
