// The full DeePMD workflow: train a model with FEKF (minutes), save it,
// reload it, then drive molecular dynamics with the LEARNED force field and
// compare its energies/forces against the teacher along the trajectory —
// the inference loop the trained model exists for.
#include <cstdio>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "data/dataset.hpp"
#include "deepmd/serialize.hpp"
#include "serve/potential.hpp"
#include "md/langevin.hpp"
#include "md/observables.hpp"
#include "train/trainer.hpp"

using namespace fekf;

int main(int argc, char** argv) {
  Cli cli("md_with_model",
          "train -> save -> load -> run MD with the learned force field");
  cli.flag("system", "Cu", "catalog system")
      .flag("train", "60", "training snapshots")
      .flag("epochs", "8", "FEKF epochs")
      .flag("md-steps", "60", "MD steps with the learned potential")
      .flag("temperature", "500", "MD temperature (K)")
      .flag("checkpoint", "/tmp/fekf_model.txt", "checkpoint path");
  if (!cli.parse(argc, argv)) return 0;

  const data::SystemSpec& spec = data::get_system(cli.get("system"));
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = std::max<i64>(
      1, cli.get_int("train") / static_cast<i64>(spec.temperatures.size()));
  dcfg.test_per_temperature = 1;
  data::Dataset ds = data::build_dataset(spec, dcfg);

  deepmd::ModelConfig mcfg;
  mcfg.embed_width = 12;
  mcfg.axis_neurons = 6;
  mcfg.fitting_width = 24;
  deepmd::DeepmdModel model(mcfg, spec.num_types());
  model.fit_stats(ds.train);
  auto train_envs = train::prepare_all(model, ds.train);

  std::printf("== training on %zu snapshots ==\n", ds.train.size());
  train::TrainOptions opts;
  opts.batch_size = 8;
  opts.max_epochs = cli.get_int("epochs");
  opts.eval_max_samples = 12;
  optim::KalmanConfig kcfg;
  kcfg.blocksize = 2048;
  train::KalmanTrainer trainer(model, kcfg, opts);
  Stopwatch train_watch;
  trainer.train(train_envs, {});
  std::printf("   trained in %.1fs\n", train_watch.seconds());

  // Round-trip through the checkpoint (what a production run would load).
  deepmd::save_model(model, cli.get("checkpoint"));
  deepmd::DeepmdModel loaded = deepmd::load_model(cli.get("checkpoint"));
  std::printf("== checkpoint saved and reloaded: %s ==\n",
              cli.get("checkpoint").c_str());

  // MD with the learned force field.
  Rng rng(11);
  md::Structure st = spec.make_structure(rng);
  auto teacher = spec.make_potential(st);
  serve::ModelPotential learned(loaded);

  md::System sys;
  sys.cell = st.cell;
  sys.positions = st.positions;
  sys.types = st.types;
  for (const i32 t : st.types) {
    sys.masses.push_back(spec.masses[static_cast<std::size_t>(t)]);
  }
  md::LangevinIntegrator integrator(
      learned, {spec.dt_fs, cli.get_double("temperature"), 0.05});
  integrator.initialize_velocities(sys, rng);

  std::printf("== running %lld MD steps at %.0f K with the learned "
              "potential ==\n",
              static_cast<long long>(cli.get_int("md-steps")),
              cli.get_double("temperature"));
  Table table({"step", "T (K)", "E_model (eV)", "E_teacher (eV)",
               "|dE|/atom (meV)", "F-RMSE vs teacher (eV/Å)"});
  md::RdfConfig rdf_cfg;
  rdf_cfg.r_max = 5.0;
  rdf_cfg.bins = 40;
  md::RdfAccumulator rdf_model(rdf_cfg);
  const i64 chunks = 6;
  const i64 steps_per_chunk =
      std::max<i64>(1, cli.get_int("md-steps") / chunks);
  for (i64 c = 1; c <= chunks; ++c) {
    const f64 e_model = integrator.run(sys, steps_per_chunk, rng);
    rdf_model.add_frame(sys.positions, sys.types, sys.cell);
    md::EnergyForces ref =
        md::evaluate(*teacher, sys.positions, sys.types, sys.cell);
    // The integrator's last evaluation is the model's at these positions.
    const std::vector<md::Vec3>& ours = integrator.evaluation().forces;
    f64 se = 0.0;
    for (std::size_t i = 0; i < ref.forces.size(); ++i) {
      const md::Vec3 d = ours[i] - ref.forces[i];
      se += d.norm2();
    }
    const f64 f_rmse =
        std::sqrt(se / (3.0 * static_cast<f64>(ref.forces.size())));
    table.add_row(
        {std::to_string(c * steps_per_chunk),
         Table::num(md::LangevinIntegrator::kinetic_temperature(sys), 0),
         Table::num(e_model, 2), Table::num(ref.energy, 2),
         Table::num(1000.0 * std::abs(e_model - ref.energy) /
                        static_cast<f64>(sys.natoms()), 1),
         Table::num(f_rmse)});
  }
  table.print();

  // Structural validation: compare the learned trajectory's g(r) against a
  // teacher trajectory sampled under identical conditions.
  md::System ref_sys;
  ref_sys.cell = st.cell;
  ref_sys.positions = st.positions;
  ref_sys.types = st.types;
  ref_sys.masses = sys.masses;
  md::LangevinIntegrator ref_integrator(
      *teacher, {spec.dt_fs, cli.get_double("temperature"), 0.05});
  Rng ref_rng(11);
  ref_integrator.initialize_velocities(ref_sys, ref_rng);
  md::RdfAccumulator rdf_teacher(rdf_cfg);
  for (i64 c = 1; c <= chunks; ++c) {
    ref_integrator.run(ref_sys, steps_per_chunk, ref_rng);
    rdf_teacher.add_frame(ref_sys.positions, ref_sys.types, ref_sys.cell);
  }
  const md::Rdf g_model = rdf_model.finalize();
  const md::Rdf g_teacher = rdf_teacher.finalize();
  std::printf("\nstructural agreement: L2(g_model(r), g_teacher(r)) = %.3f "
              "(0 = identical pair structure)\n",
              md::Rdf::distance(g_model, g_teacher));
  std::printf("\nThe learned force field tracks the teacher along its own "
              "trajectory — training to deployment on one workstation.\n");
  return 0;
}
