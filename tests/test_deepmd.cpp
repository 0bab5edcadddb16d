// DeePMD model tests: descriptor symmetry invariances, analytic forces vs
// finite differences of the predicted energy, equality of the fused (opt1/2)
// and baseline computation paths, double-backward through the force graph
// (the property the EKF force update relies on), and structural checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "autograd/ops.hpp"
#include "data/systems.hpp"
#include "deepmd/jacobian_ops.hpp"
#include "deepmd/model.hpp"
#include "md/sampler.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"

namespace fekf::deepmd {
namespace {

namespace op = ag::ops;

ModelConfig small_config(FusionLevel fusion = FusionLevel::kOpt2) {
  ModelConfig cfg;
  cfg.rcut = 5.0;
  cfg.rcut_smth = 2.5;
  cfg.embed_width = 8;
  cfg.axis_neurons = 4;
  cfg.fitting_width = 12;
  cfg.fusion = fusion;
  return cfg;
}

std::vector<md::Snapshot> sample_system(const std::string& name, i64 count,
                                        u64 seed) {
  const data::SystemSpec& spec = data::get_system(name);
  Rng rng(seed);
  md::Structure st = spec.make_structure(rng);
  auto pot = spec.make_potential(st);
  md::SamplerConfig cfg;
  cfg.dt_fs = spec.dt_fs;
  cfg.temperatures = {spec.temperatures.front()};
  cfg.equilibration_steps = 20;
  cfg.stride = 3;
  cfg.snapshots_per_temperature = count;
  return md::sample_trajectory(*pot, st, spec.masses, cfg, rng);
}

f64 energy_value(const DeepmdModel& model, const md::Snapshot& snap) {
  ag::NoGradGuard guard;
  auto env = model.prepare(snap);
  return model.predict(env, /*with_forces=*/false).energy.item();
}

TEST(Deepmd, PaperParameterCount) {
  // Paper §4: [25,25,25] embedding + [400,50,50,50,1] fitting = 26 551
  // parameters for a one-element system (the paper quotes 26 651 including
  // bookkeeping variables; the layer algebra gives 26 551).
  ModelConfig cfg;
  DeepmdModel model(cfg, /*num_types=*/1);
  EXPECT_EQ(model.num_parameters(), 26551);
}

TEST(Deepmd, TranslationInvariance) {
  auto snaps = sample_system("Cu", 2, 41);
  DeepmdModel model(small_config(), 1);
  model.fit_stats(snaps);
  md::Snapshot shifted = snaps[0];
  for (auto& p : shifted.positions) {
    p = shifted.cell.wrap(p + md::Vec3{1.3, -0.7, 2.1});
  }
  EXPECT_NEAR(energy_value(model, snaps[0]), energy_value(model, shifted),
              1e-3);
}

TEST(Deepmd, PermutationInvariance) {
  auto snaps = sample_system("NaCl", 2, 42);
  DeepmdModel model(small_config(), 2);
  model.fit_stats(snaps);
  md::Snapshot perm = snaps[0];
  // Swap two same-type atoms and two other-type atoms.
  std::swap(perm.positions[0], perm.positions[3]);
  std::swap(perm.forces[0], perm.forces[3]);
  const i64 n = perm.natoms();
  std::swap(perm.positions[static_cast<std::size_t>(n - 1)],
            perm.positions[static_cast<std::size_t>(n - 4)]);
  std::swap(perm.forces[static_cast<std::size_t>(n - 1)],
            perm.forces[static_cast<std::size_t>(n - 4)]);
  EXPECT_NEAR(energy_value(model, snaps[0]), energy_value(model, perm), 1e-3);
}

TEST(Deepmd, RotationInvariance) {
  // 90-degree rotation about z (keeps the orthorhombic cell orthorhombic
  // for a cubic box): (x, y, z) -> (L - y, x, z).
  auto snaps = sample_system("Cu", 2, 43);
  DeepmdModel model(small_config(), 1);
  model.fit_stats(snaps);
  md::Snapshot rot = snaps[0];
  const f64 l = rot.cell.lengths().x;
  for (auto& p : rot.positions) {
    p = rot.cell.wrap(md::Vec3{l - p.y, p.x, p.z});
  }
  EXPECT_NEAR(energy_value(model, snaps[0]), energy_value(model, rot), 1e-3);
}

TEST(Deepmd, ForcesMatchFiniteDifference) {
  for (const char* system : {"Cu", "NaCl"}) {
    auto snaps = sample_system(system, 2, 44);
    const i32 nt = static_cast<i32>(data::get_system(system).elements.size());
    DeepmdModel model(small_config(), nt);
    model.fit_stats(snaps);
    const md::Snapshot& snap = snaps[0];
    auto env = model.prepare(snap);
    auto pred = model.predict(env, /*with_forces=*/true);
    const Tensor& forces = pred.forces.value();

    Rng rng(45);
    const f64 eps = 2e-3;
    for (int trial = 0; trial < 6; ++trial) {
      const i64 atom = static_cast<i64>(
          rng.uniform_index(static_cast<u64>(snap.natoms())));
      const int axis = static_cast<int>(rng.uniform_index(3));
      md::Snapshot plus = snap, minus = snap;
      auto& cp = plus.positions[static_cast<std::size_t>(atom)];
      auto& cm = minus.positions[static_cast<std::size_t>(atom)];
      (axis == 0 ? cp.x : axis == 1 ? cp.y : cp.z) += eps;
      (axis == 0 ? cm.x : axis == 1 ? cm.y : cm.z) -= eps;
      const f64 numeric =
          -(energy_value(model, plus) - energy_value(model, minus)) /
          (2 * eps);
      // Forces are reported in sorted-atom order.
      i64 sorted = -1;
      for (i64 s = 0; s < snap.natoms(); ++s) {
        if (env->perm[static_cast<std::size_t>(s)] == atom) sorted = s;
      }
      ASSERT_GE(sorted, 0);
      const f64 analytic = forces.at(sorted, axis);
      EXPECT_NEAR(analytic, numeric, 2e-2 * (1.0 + std::abs(numeric)))
          << system << " atom " << atom << " axis " << axis;
    }
  }
}

TEST(Deepmd, FusionLevelsAgree) {
  auto snaps = sample_system("NaCl", 2, 46);
  DeepmdModel baseline(small_config(FusionLevel::kBaseline), 2);
  baseline.fit_stats(snaps);
  DeepmdModel opt1(small_config(FusionLevel::kOpt1), 2);
  opt1.set_stats(baseline.env_stats(), baseline.energy_stats());
  DeepmdModel opt2(small_config(FusionLevel::kOpt2), 2);
  opt2.set_stats(baseline.env_stats(), baseline.energy_stats());

  auto env_b = baseline.prepare(snaps[0]);
  auto env_1 = opt1.prepare(snaps[0]);
  auto env_2 = opt2.prepare(snaps[0]);
  auto pb = baseline.predict(env_b, true);
  auto p1 = opt1.predict(env_1, true);
  auto p2 = opt2.predict(env_2, true);

  EXPECT_NEAR(pb.energy.item(), p1.energy.item(), 1e-3);
  EXPECT_NEAR(pb.energy.item(), p2.energy.item(), 1e-3);
  for (i64 i = 0; i < pb.forces.numel(); ++i) {
    EXPECT_NEAR(pb.forces.value().data()[i], p1.forces.value().data()[i],
                2e-3);
    EXPECT_NEAR(pb.forces.value().data()[i], p2.forces.value().data()[i],
                2e-3);
  }
}

TEST(Deepmd, FusionReducesKernelLaunches) {
  auto snaps = sample_system("Cu", 1, 47);
  DeepmdModel baseline(small_config(FusionLevel::kBaseline), 1);
  baseline.fit_stats(snaps);
  DeepmdModel opt2(small_config(FusionLevel::kOpt2), 1);
  opt2.set_stats(baseline.env_stats(), baseline.energy_stats());

  auto env = baseline.prepare(snaps[0]);
  i64 kb = 0, k2 = 0;
  {
    KernelCountScope scope;
    (void)baseline.predict(env, true);
    kb = scope.count();
  }
  {
    KernelCountScope scope;
    (void)opt2.predict(env, true);
    k2 = scope.count();
  }
  EXPECT_GT(kb, 3 * k2) << "baseline " << kb << " vs fused " << k2;
}

// The EKF force update differentiates a sign-weighted force sum w.r.t. the
// weights — i.e. double backward through the whole model. Validate against
// finite differences of the measurement under weight perturbations.
TEST(Deepmd, ForceMeasurementWeightGradient) {
  for (const FusionLevel fusion :
       {FusionLevel::kBaseline, FusionLevel::kOpt2}) {
    auto snaps = sample_system("Cu", 1, 48);
    DeepmdModel model(small_config(fusion), 1);
    model.fit_stats(snaps);
    auto env = model.prepare(snaps[0]);

    Rng rng(49);
    Tensor weights_t(env->natoms, 3);
    for (i64 i = 0; i < weights_t.numel(); ++i) {
      weights_t.data()[i] = rng.uniform() < 0.5 ? -1.0f : 1.0f;
    }
    const ag::Variable sign(weights_t);

    auto measurement = [&](bool build_graph) -> ag::Variable {
      auto pred = model.predict(env, /*with_forces=*/true);
      (void)build_graph;
      return op::sum_all(op::mul(pred.forces, sign));
    };

    ag::Variable m = measurement(true);
    auto params = model.parameters();
    auto grads = ag::grad(m, params);

    // Spot-check a few entries of a weight matrix in the embedding and in
    // the fitting net against finite differences.
    const f64 eps = 1e-3;
    for (const std::size_t pi : {std::size_t{0}, params.size() - 2}) {
      ag::Variable& p = params[pi];
      for (int trial = 0; trial < 2; ++trial) {
        const i64 idx = static_cast<i64>(
            rng.uniform_index(static_cast<u64>(p.numel())));
        Tensor original = p.value().clone();
        Tensor bumped = original.clone();
        bumped.data()[idx] += static_cast<f32>(eps);
        p.set_value(bumped);
        const f64 m_plus = measurement(false).item();
        bumped.data()[idx] -= static_cast<f32>(2 * eps);
        p.set_value(bumped);
        const f64 m_minus = measurement(false).item();
        p.set_value(original);
        const f64 numeric = (m_plus - m_minus) / (2 * eps);
        const f64 analytic = grads[pi].value().data()[idx];
        EXPECT_NEAR(analytic, numeric, 0.05 * (1.0 + std::abs(numeric)))
            << "fusion " << static_cast<int>(fusion) << " param " << pi
            << " idx " << idx;
      }
    }
  }
}

TEST(Deepmd, EnvDataStructure) {
  auto snaps = sample_system("NaCl", 1, 50);
  DeepmdModel model(small_config(), 2);
  model.fit_stats(snaps);
  auto env = model.prepare(snaps[0]);
  EXPECT_EQ(env->natoms, snaps[0].natoms());
  EXPECT_EQ(env->truncated_neighbors, 0);  // auto-sel has headroom
  // Atoms sorted by type.
  EXPECT_EQ(env->type_offsets.front(), 0);
  EXPECT_EQ(env->type_offsets.back(), env->natoms);
  EXPECT_EQ(env->type_counts[0] + env->type_counts[1], env->natoms);
  // Jacobian rows reference valid slots.
  for (i32 t = 0; t < 2; ++t) {
    for (const SlotJacobian& sj : env->jacobians[static_cast<std::size_t>(t)]) {
      EXPECT_LT(sj.row, env->r_mats[static_cast<std::size_t>(t)].rows());
      EXPECT_LT(sj.center, env->natoms);
      EXPECT_LT(sj.neighbor, env->natoms);
    }
  }
}

TEST(Deepmd, PaddedSlotsHaveNormalizedZeroRadial) {
  auto snaps = sample_system("Cu", 1, 51);
  ModelConfig cfg = small_config();
  DeepmdModel model(cfg, 1);
  model.fit_stats(snaps);
  auto env = model.prepare(snaps[0]);
  // The last slot of each atom should usually be padding (sel headroom):
  // its radial entry equals (0 - davg)/dstd, angular entries equal 0.
  const f64 expected =
      (0.0 - model.env_stats().davg[0]) / model.env_stats().dstd_r[0];
  const Tensor& r = env->r_mats[0];
  const i64 sel = model.sel()[0];
  i64 padded = 0;
  for (i64 i = 0; i < env->natoms; ++i) {
    const i64 row = i * sel + (sel - 1);
    if (std::abs(r.at(row, 1)) < 1e-12 && std::abs(r.at(row, 2)) < 1e-12) {
      ++padded;
      EXPECT_NEAR(r.at(row, 0), expected, 1e-5);
    }
  }
  EXPECT_GT(padded, 0);
}

TEST(Deepmd, JacobianOpsAreMutualTransposes) {
  // <L g, f> == <g, L^T f> for random g, f.
  auto snaps = sample_system("Cu", 1, 52);
  DeepmdModel model(small_config(), 1);
  model.fit_stats(snaps);
  auto env = model.prepare(snaps[0]);
  Rng rng(53);
  Tensor g = Tensor::randn(env->natoms * model.sel()[0], 4, rng);
  Tensor f = Tensor::randn(env->natoms, 3, rng);
  ag::Variable gv(g), fv(f);
  ag::Variable lg = jacobian_force(gv, env, 0);
  ag::Variable ltf = jacobian_force_transpose(fv, env, 0);
  const f64 lhs = kernels::dot_all(lg.value(), f);
  const f64 rhs = kernels::dot_all(g, ltf.value());
  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
}

TEST(Deepmd, StatsSuggestedSelCoversData) {
  auto snaps = sample_system("HfO2", 3, 54);
  ModelConfig cfg = small_config();
  EnvStats stats = compute_env_stats(snaps, 2, cfg);
  ASSERT_EQ(stats.suggested_sel.size(), 2u);
  for (const md::Snapshot& snap : snaps) {
    auto env = build_env(snap, stats, stats.suggested_sel, cfg);
    EXPECT_EQ(env->truncated_neighbors, 0);
  }
}

void expect_same_env(const EnvData& a, const EnvData& b,
                     const std::string& label) {
  EXPECT_EQ(a.perm, b.perm) << label;
  EXPECT_EQ(a.truncated_neighbors, b.truncated_neighbors) << label;
  ASSERT_EQ(a.r_mats.size(), b.r_mats.size()) << label;
  for (std::size_t t = 0; t < a.r_mats.size(); ++t) {
    ASSERT_EQ(a.r_mats[t].numel(), b.r_mats[t].numel()) << label;
    EXPECT_EQ(std::memcmp(a.r_mats[t].data(), b.r_mats[t].data(),
                          static_cast<std::size_t>(a.r_mats[t].numel()) *
                              sizeof(f32)),
              0)
        << label << " type " << t;
    ASSERT_EQ(a.jacobians[t].size(), b.jacobians[t].size()) << label;
    for (std::size_t k = 0; k < a.jacobians[t].size(); ++k) {
      const SlotJacobian& x = a.jacobians[t][k];
      const SlotJacobian& y = b.jacobians[t][k];
      EXPECT_TRUE(x.row == y.row && x.center == y.center &&
                  x.neighbor == y.neighbor &&
                  std::memcmp(x.j.data(), y.j.data(), sizeof x.j) == 0)
          << label << " type " << t << " slot " << k;
    }
  }
}

TEST(Deepmd, PrebuiltNeighborListGivesTheSameEnv) {
  for (const char* name : {"Cu", "HfO2"}) {
    auto snaps = sample_system(name, 2, 55);
    DeepmdModel model(small_config(), data::get_system(name).num_types());
    model.fit_stats(snaps);
    const f64 rcut = model.config().rcut;
    for (const md::Snapshot& snap : snaps) {
      auto own = model.prepare(snap);
      md::NeighborList nl;
      nl.build(snap.positions, snap.cell, rcut);
      expect_same_env(*own, *model.prepare(snap, &nl),
                      std::string(name) + " list at rcut");
      // MD snapshots have no two neighbors at one distance, so a longer
      // list, cut back to rcut, fills the slots the same way.
      nl.build(snap.positions, snap.cell, rcut + 1.5);
      expect_same_env(*own, *model.prepare(snap, &nl),
                      std::string(name) + " longer list");
      nl.build(snap.positions, snap.cell, rcut - 0.5);
      EXPECT_THROW(model.prepare(snap, &nl), Error) << "list short of rcut";
      nl.build(std::span(snap.positions).first(4), snap.cell, rcut);
      EXPECT_THROW(model.prepare(snap, &nl), Error) << "list of other atoms";
    }
  }
}

}  // namespace
}  // namespace fekf::deepmd
