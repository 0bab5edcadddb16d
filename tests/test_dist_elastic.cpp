// Elastic virtual-cluster tests (DESIGN.md §10): membership lifecycle
// (join catch-up, heartbeat eviction), the closed-form
// allreduce charge, stragglers (a bounded wait that costs time only),
// membership checkpoint/resume, and the determinism contract — fault-free
// vs injected-and-recovered runs produce identical weights exactly where
// the contract promises it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "core/fault.hpp"
#include "data/dataset.hpp"
#include "dist/cluster.hpp"

namespace fekf::dist {
namespace {

/// Pins the injector to `spec` for the test, restoring the ambient
/// FEKF_FAULT_SPEC arms on scope exit.
struct InjectorGuard {
  explicit InjectorGuard(const std::string& spec = {}) {
    FaultInjector::instance().configure(spec);
  }
  ~InjectorGuard() { FaultInjector::instance().configure_from_env(); }
};

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name + "." +
             std::to_string(static_cast<long long>(::getpid()))) {}
  ~TempFile() { std::remove(path.c_str()); }
};

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<deepmd::DeepmdModel> model;
  std::vector<train::EnvPtr> train_envs;
};

Fixture make_fixture(i64 per_temp = 2) {
  Fixture f;
  data::DatasetConfig dcfg;
  dcfg.train_per_temperature = per_temp;
  dcfg.test_per_temperature = 1;
  deepmd::ModelConfig mcfg;
  mcfg.rcut = 5.0;
  mcfg.rcut_smth = 2.5;
  mcfg.embed_width = 8;
  mcfg.axis_neurons = 4;
  mcfg.fitting_width = 16;
  const data::SystemSpec& spec = data::get_system("Cu");
  f.dataset = data::build_dataset(spec, dcfg);
  f.model = std::make_unique<deepmd::DeepmdModel>(mcfg, 1);
  f.model->fit_stats(f.dataset.train);
  f.train_envs = train::prepare_all(*f.model, f.dataset.train);
  return f;
}

DistributedConfig base_config(i64 ranks, i64 batch, i64 epochs = 1) {
  DistributedConfig cfg;
  cfg.ranks = ranks;
  cfg.options.batch_size = batch;
  cfg.options.max_epochs = epochs;
  cfg.options.eval_max_samples = 4;
  cfg.kalman.blocksize = 1024;
  return cfg;
}

std::vector<f64> gather_weights(deepmd::DeepmdModel& model) {
  optim::FlatParams flat(model.parameters());
  std::vector<f64> w(static_cast<std::size_t>(flat.size()));
  flat.gather(w);
  return w;
}

i64 event_step(const FaultLog& log, const char* kind) {
  for (const FaultEvent& e : log.events) {
    if (e.kind == kind) return e.step;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Membership lifecycle
// ---------------------------------------------------------------------------

TEST(Elastic, JoinChargesCatchupTransferToLedger) {
  InjectorGuard guard("rank_join@step=2");
  Fixture f = make_fixture(2);
  DistributedConfig cfg = base_config(2, 2);
  DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  EXPECT_EQ(result.comm.join_events, 1);
  // The joiner catches up on the authoritative weights PLUS its covariance
  // shard — strictly more than the weight payload alone.
  optim::FlatParams flat(f.model->parameters());
  EXPECT_GT(result.comm.join_bytes, flat.size() * 8);
  EXPECT_GT(result.comm.join_seconds, 0.0);
  EXPECT_EQ(result.train.faults.count("rank_join"), 1);
  EXPECT_EQ(result.surviving_ranks, 3);
  ASSERT_TRUE(result.membership.present);
  EXPECT_EQ(result.membership.ranks.size(), 3u);
  EXPECT_EQ(result.membership.next_id, 3);
  // Heartbeat traffic is accounted once the ring has >1 live rank.
  EXPECT_GT(result.comm.heartbeats, 0);
  EXPECT_GT(result.comm.heartbeat_seconds, 0.0);
}

TEST(Elastic, FailThenJoinIsBitReproducibleAcrossInvocations) {
  // The ISSUE acceptance run: a rank dies at step 30, a fresh one joins at
  // step 60. Membership changes alter the shard split, so the weights
  // differ from a fault-free run — but the documented contract is that two
  // invocations of the same spec reproduce each other bit-for-bit.
  auto run = []() {
    InjectorGuard guard("rank_fail@step=30,rank_join@step=60");
    Fixture f = make_fixture(13);  // 65 envs, batch 2 -> 32 steps/epoch
    DistributedConfig cfg = base_config(2, 2, 2);
    DistributedResult result =
        train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
    EXPECT_GE(result.train.steps, 60);
    EXPECT_EQ(result.train.faults.count("rank_fail"), 1);
    EXPECT_EQ(result.train.faults.count("rank_evict"), 1);
    EXPECT_EQ(result.train.faults.count("rank_join"), 1);
    EXPECT_EQ(event_step(result.train.faults, "rank_fail"), 30);
    EXPECT_EQ(event_step(result.train.faults, "rank_join"), 60);
    EXPECT_EQ(result.comm.evictions, 1);
    EXPECT_EQ(result.comm.join_events, 1);
    EXPECT_EQ(result.surviving_ranks, 2);
    EXPECT_TRUE(std::isfinite(result.train.final_train.energy_rmse));
    return gather_weights(*f.model);
  };
  const std::vector<f64> a = run();
  const std::vector<f64> b = run();
  EXPECT_EQ(a, b);  // bit-exact
}

// ---------------------------------------------------------------------------
// The communication ledger charges the closed-form ring allreduce
// ---------------------------------------------------------------------------

TEST(Elastic, CommSecondsIsClosedFormAllreduceOverLiveRanks) {
  InjectorGuard guard("rank_fail@step=2");
  Fixture f = make_fixture(2);
  DistributedConfig cfg = base_config(3, 3, 2);
  DistributedResult result =
      train_fekf_distributed(*f.model, f.train_envs, {}, cfg);
  // kMissLimit 1: silenced and evicted at the step-2 poll, before compute.
  const i64 evicted_at = event_step(result.train.faults, "rank_evict");
  ASSERT_EQ(evicted_at, 2);
  ASSERT_EQ(result.surviving_ranks, 2);
  ASSERT_EQ(result.train.faults.events.size(), 2u);  // no rollbacks

  // Every reduced update (1 energy + kForceGroupsPerStep force) charges
  // the gradient allreduce, then the scalar-error one, among the ranks
  // live at that step. Summed in the cluster's order, the ledger matches
  // to the last bit.
  optim::FlatParams flat(f.model->parameters());
  const i64 grad_payload = flat.size() * static_cast<i64>(sizeof(f64));
  const i64 error_payload = static_cast<i64>(sizeof(f64));
  const i64 updates = 1 + train::kForceGroupsPerStep;
  f64 expected = 0.0, never_evicted = 0.0;
  for (i64 step = 1; step <= result.train.steps; ++step) {
    const i64 live = step < evicted_at ? 3 : 2;
    for (i64 u = 0; u < updates; ++u) {
      expected += cfg.interconnect.allreduce_seconds(grad_payload, live);
      expected += cfg.interconnect.allreduce_seconds(error_payload, live);
      never_evicted += cfg.interconnect.allreduce_seconds(grad_payload, 3);
      never_evicted += cfg.interconnect.allreduce_seconds(error_payload, 3);
    }
  }
  EXPECT_EQ(result.comm.steps, result.train.steps * updates);
  EXPECT_EQ(result.comm.comm_seconds, expected);  // bit-exact
  EXPECT_LT(result.comm.comm_seconds, never_evicted);
}

// ---------------------------------------------------------------------------
// Stragglers: a bounded wait
// ---------------------------------------------------------------------------

TEST(Elastic, StragglerWaitPolicyCostsTimeOnly) {
  Fixture clean = make_fixture(2);
  DistributedConfig cfg = base_config(3, 3);
  std::vector<f64> clean_weights;
  {
    InjectorGuard guard;
    train_fekf_distributed(*clean.model, clean.train_envs, {}, cfg);
    clean_weights = gather_weights(*clean.model);
  }
  Fixture slow = make_fixture(2);
  {
    InjectorGuard guard("straggler@step=2,factor=8");
    DistributedResult result =
        train_fekf_distributed(*slow.model, slow.train_envs, {}, cfg);
    EXPECT_EQ(result.comm.straggler_events, 1);
    EXPECT_GT(result.comm.straggler_wait_seconds, 0.0);
    EXPECT_EQ(result.surviving_ranks, 3);  // waiting never evicts
    EXPECT_EQ(result.train.faults.count("straggler"), 1);
    EXPECT_EQ(result.train.faults.count("rank_evict"), 0);
  }
  // Waiting costs simulated time only — the update itself is unchanged.
  EXPECT_EQ(gather_weights(*slow.model), clean_weights);
}

// ---------------------------------------------------------------------------
// Membership survives checkpoint/resume
// ---------------------------------------------------------------------------

TEST(Elastic, MembershipCheckpointResumeReproducesTrajectory) {
  TempFile file("fekf_elastic_resume.ckpt");
  DistributedConfig cfg = base_config(3, 3, 2);  // 4 steps/epoch, 8 steps

  // Reference run: rank 2 dies at step 2; checkpoint cut at step 6.
  Fixture a = make_fixture(2);
  std::vector<f64> reference;
  {
    InjectorGuard guard("rank_fail@step=2");
    DistributedConfig ckpt_cfg = cfg;
    ckpt_cfg.options.checkpoint_every = 6;
    ckpt_cfg.options.checkpoint_path = file.path;
    DistributedResult result =
        train_fekf_distributed(*a.model, a.train_envs, {}, ckpt_cfg);
    EXPECT_EQ(result.surviving_ranks, 2);
    EXPECT_GT(result.train.checkpoint_seconds, 0.0);
    reference = gather_weights(*a.model);
  }

  // The checkpoint carries the membership table: 3 ranks, one dead.
  {
    train::LoadedCheckpoint loaded = train::load_checkpoint(file.path);
    ASSERT_TRUE(loaded.state.membership.present);
    EXPECT_EQ(loaded.state.membership.ranks.size(), 3u);
    EXPECT_EQ(loaded.state.membership.next_id, 3);
    i64 dead = 0;
    for (const auto& rank : loaded.state.membership.ranks) {
      if (!rank.alive) ++dead;
    }
    EXPECT_EQ(dead, 1);
    EXPECT_EQ(loaded.state.steps, 6);
  }

  // Resume on a fresh model: the injected fault already happened before
  // the cut, so the resumed segment runs fault-free and must land on the
  // reference weights bit-for-bit (same 2-rank shard split restored).
  Fixture b = make_fixture(2);
  {
    InjectorGuard guard;
    DistributedConfig resume_cfg = cfg;
    resume_cfg.options.resume_from = file.path;
    DistributedResult result =
        train_fekf_distributed(*b.model, b.train_envs, {}, resume_cfg);
    EXPECT_EQ(result.surviving_ranks, 2);
    EXPECT_EQ(result.train.steps, 8);
  }
  EXPECT_EQ(gather_weights(*b.model), reference);  // bit-exact
}

// ---------------------------------------------------------------------------
// Construction-time validation of the new knobs
// ---------------------------------------------------------------------------

TEST(Elastic, ClusterConstructionValidatesAllKnobs) {
  DistributedConfig good = base_config(2, 2);
  EXPECT_NO_THROW(VirtualCluster(good, 100, 100));

  DistributedConfig bad = good;
  bad.interconnect.bandwidth_gbps = 0.0;
  EXPECT_THROW(VirtualCluster(bad, 100, 100), Error);
}

}  // namespace
}  // namespace fekf::dist
