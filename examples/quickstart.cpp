// Quickstart: generate a small Cu dataset with the teacher potential,
// train a DeePMD model with the FEKF optimizer, and compare against the
// teacher on held-out snapshots.
//
//   ./examples/quickstart [--system Cu] [--train 96] [--epochs 8]
#include <cstdio>

#include "core/cli.hpp"
#include "core/log.hpp"
#include "core/table.hpp"
#include "data/dataset.hpp"
#include "obs/trace.hpp"
#include "train/lcurve.hpp"
#include "train/trainer.hpp"

using namespace fekf;

int main(int argc, char** argv) {
  Cli cli("quickstart", "train one DeePMD model with FEKF in seconds");
  cli.flag("system", "Cu", "catalog system (Cu, Al, Si, NaCl, Mg, H2O, CuO, HfO2)")
      .flag("train", "96", "training snapshots (split over the system's temperatures)")
      .flag("test", "24", "test snapshots")
      .flag("epochs", "8", "training epochs")
      .flag("batch", "8", "FEKF mini-batch size")
      .flag("embed", "12", "embedding net width M")
      .flag("axis", "6", "axis neurons M^<")
      .flag("fit", "24", "fitting net width d")
      .flag("verbose", "true", "per-epoch logging")
      .flag("lcurve", "", "optional CSV path for the learning curve");
  if (!cli.parse(argc, argv)) return 0;

  const data::SystemSpec& spec = data::get_system(cli.get("system"));
  const i64 ntemps = static_cast<i64>(spec.temperatures.size());

  std::printf("== %s: sampling teacher trajectories at %lld temperatures ==\n",
              spec.name.c_str(), static_cast<long long>(ntemps));
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature =
      std::max<i64>(1, cli.get_int("train") / ntemps);
  dcfg.test_per_temperature = std::max<i64>(1, cli.get_int("test") / ntemps);
  data::Dataset ds = data::build_dataset(spec, dcfg);
  std::printf("   %zu train / %zu test snapshots, %lld atoms each\n",
              ds.train.size(), ds.test.size(),
              static_cast<long long>(ds.natoms()));

  deepmd::ModelConfig mcfg;
  mcfg.embed_width = cli.get_int("embed");
  mcfg.axis_neurons = cli.get_int("axis");
  mcfg.fitting_width = cli.get_int("fit");
  deepmd::DeepmdModel model(mcfg, spec.num_types());
  model.fit_stats(ds.train);
  std::printf("== model: %lld parameters, sel = [",
              static_cast<long long>(model.num_parameters()));
  for (std::size_t t = 0; t < model.sel().size(); ++t) {
    std::printf("%s%lld", t ? ", " : "",
                static_cast<long long>(model.sel()[t]));
  }
  std::printf("] ==\n");

  auto train_envs = train::prepare_all(model, ds.train);
  auto test_envs = train::prepare_all(model, ds.test);

  train::TrainOptions opts;
  opts.batch_size = cli.get_int("batch");
  opts.max_epochs = cli.get_int("epochs");
  opts.verbose = cli.get_bool("verbose");
  optim::KalmanConfig kcfg = optim::KalmanConfig::for_batch_size(opts.batch_size);
  kcfg.blocksize = 2048;
  train::KalmanTrainer trainer(model, kcfg, opts);

  std::printf("== training with FEKF (batch %lld) ==\n",
              static_cast<long long>(opts.batch_size));
  const obs::SpanClock clock;  // the Figure 7(c) phase split
  train::TrainResult result = trainer.train(train_envs, test_envs);

  Table table({"epoch", "train E-RMSE (eV)", "train F-RMSE (eV/A)",
               "test E-RMSE", "test F-RMSE", "time (s)"});
  for (const auto& rec : result.history) {
    table.add_row({std::to_string(rec.epoch), Table::num(rec.train.energy_rmse),
                   Table::num(rec.train.force_rmse),
                   Table::num(rec.test.energy_rmse),
                   Table::num(rec.test.force_rmse),
                   Table::num(rec.cumulative_seconds, 1)});
  }
  table.print();
  std::printf(
      "phase split: forward %.2fs, gradient %.2fs, KF update %.2fs\n",
      clock.seconds("forward"), clock.seconds("gradient"),
      clock.seconds("kf_update"));
  if (!cli.get("lcurve").empty()) {
    train::write_lcurve(result, cli.get("lcurve"));
    std::printf("learning curve written to %s\n", cli.get("lcurve").c_str());
  }
  return 0;
}
