#include "dist/cluster.hpp"

#include <cmath>
#include <optional>

#include "core/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "train/observer.hpp"

namespace fekf::dist {

using train::EnvPtr;

namespace {

/// Slowdown applied when a straggler arm carries no factor= qualifier.
constexpr f64 kDefaultStragglerFactor = 4.0;

}  // namespace

void InterconnectModel::validate() const {
  FEKF_CHECK(std::isfinite(bandwidth_gbps) && bandwidth_gbps > 0.0,
             "InterconnectModel.bandwidth_gbps must be finite and > 0 "
             "(got " + std::to_string(bandwidth_gbps) + ")");
  FEKF_CHECK(std::isfinite(latency_s) && latency_s >= 0.0,
             "InterconnectModel.latency_s must be finite and >= 0 (got " +
                 std::to_string(latency_s) + ")");
}

void FailureDetectorConfig::validate() const {
  FEKF_CHECK(miss_limit >= 1,
             "FailureDetectorConfig.miss_limit must be >= 1 (got " +
                 std::to_string(miss_limit) + ")");
  FEKF_CHECK(std::isfinite(heartbeat_period_s) && heartbeat_period_s >= 0.0,
             "FailureDetectorConfig.heartbeat_period_s must be finite and "
             ">= 0 (got " + std::to_string(heartbeat_period_s) + ")");
  FEKF_CHECK(heartbeat_bytes >= 0,
             "FailureDetectorConfig.heartbeat_bytes must be >= 0 (got " +
                 std::to_string(heartbeat_bytes) + ")");
}

void DistributedConfig::validate() const {
  FEKF_CHECK(ranks >= 1, "DistributedConfig.ranks must be >= 1 (got " +
                             std::to_string(ranks) + ")");
  options.validate();
  kalman.validate();
  interconnect.validate();
  detector.validate();
}

VirtualCluster::VirtualCluster(const DistributedConfig& config,
                               i64 grad_payload_bytes, i64 covariance_bytes)
    : config_(config),
      grad_payload_(grad_payload_bytes),
      covariance_bytes_(covariance_bytes) {
  config.validate();
  FEKF_CHECK(grad_payload_bytes >= 0 && covariance_bytes >= 0,
             "VirtualCluster payload sizes must be >= 0");
  members_.reserve(static_cast<std::size_t>(config.ranks));
  for (i64 r = 0; r < config.ranks; ++r) {
    Rank rank;
    rank.id = r;
    members_.push_back(rank);
  }
  next_id_ = config.ranks;
}

i64 VirtualCluster::live_ranks() const {
  i64 live = 0;
  for (const Rank& r : members_) {
    if (r.alive) ++live;
  }
  return live;
}

train::MembershipCheckpoint VirtualCluster::membership() const {
  train::MembershipCheckpoint m;
  m.present = true;
  m.next_id = next_id_;
  m.ranks = members_;
  return m;
}

void VirtualCluster::restore_membership(
    const train::MembershipCheckpoint& m) {
  FEKF_CHECK(m.present, "membership checkpoint carries no member table");
  i64 live = 0;
  i64 max_id = -1;
  for (const Rank& r : m.ranks) {
    FEKF_CHECK(r.id >= 0, "membership checkpoint has a negative rank id");
    FEKF_CHECK(r.slowdown > 0.0,
               "membership checkpoint rank slowdown must be > 0");
    if (r.alive) ++live;
    max_id = std::max(max_id, r.id);
  }
  FEKF_CHECK(live >= 1, "membership checkpoint has no live ranks");
  FEKF_CHECK(m.next_id > max_id,
             "membership checkpoint next_id collides with an existing rank");
  members_ = m.ranks;
  next_id_ = m.next_id;
}

VirtualCluster::Rank* VirtualCluster::find_live(i64 id) {
  for (Rank& r : members_) {
    if (r.alive && r.id == id) return &r;
  }
  return nullptr;
}

VirtualCluster::Rank* VirtualCluster::pick_victim(i64 preferred_id) {
  if (preferred_id >= 0) {
    if (Rank* r = find_live(preferred_id)) return r;
  }
  Rank* victim = nullptr;
  for (Rank& r : members_) {
    if (r.alive && (victim == nullptr || r.id > victim->id)) victim = &r;
  }
  return victim;
}

void VirtualCluster::record(FaultLog& log, i64 step, const char* kind,
                            const char* trace_name, const char* action,
                            std::string detail) {
  log.record(step, kind, action, std::move(detail));
  // trace_name must be a string literal: TraceEvent keeps the pointer.
  obs::TraceRecorder::instance().instant(
      trace_name, "fault", "step", static_cast<f64>(step), "live_ranks",
      static_cast<f64>(live_ranks()));
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::instance()
        .counter("dist.fault." + std::string(kind))
        .inc();
  }
  for (train::TrainObserver* observer : config_.options.observers) {
    observer->on_fault(log.events.back());
  }
}

void VirtualCluster::evict(Rank& rank, i64 step, FaultLog& log) {
  FEKF_CHECK(live_ranks() > 1,
             "rank eviction left no surviving ranks (rank " +
                 std::to_string(rank.id) + ", heartbeat timeout)");
  rank.alive = false;
  const i64 survivors = live_ranks();
  // Survivors take over the dead rank's shard and re-sync the
  // authoritative weights: one weight-payload allreduce among them.
  const f64 reshard_s =
      config_.interconnect.allreduce_seconds(grad_payload_, survivors);
  ++ledger_.reshard_events;
  ++ledger_.evictions;
  ledger_.reshard_bytes +=
      InterconnectModel::allreduce_bytes(grad_payload_, survivors);
  ledger_.reshard_seconds += reshard_s;
  record(log, step, "rank_evict", "fault.rank_evict", "reshard",
         "rank " + std::to_string(rank.id) +
             " evicted (heartbeat timeout); " + std::to_string(survivors) +
             " survivors");
}

f64 VirtualCluster::poll_faults(i64 step, FaultLog& log) {
  const f64 sim_before =
      ledger_.reshard_seconds + ledger_.join_seconds +
      ledger_.heartbeat_seconds;
  auto& injector = FaultInjector::instance();

  // 1. Injected rank failure: the victim stops heartbeating. It is NOT
  // removed here — the failure detector below decides, deterministically,
  // when the silence becomes an eviction.
  if (auto fired = injector.fire_detail(faults::kRankFail, step)) {
    FEKF_CHECK(live_ranks() > 1,
               "injected rank failure left no surviving ranks");
    Rank* victim = pick_victim(fired->rank);
    victim->silent = true;
    record(log, step, "rank_fail", "fault.rank_fail", "silenced",
           "rank " + std::to_string(victim->id) + " stopped heartbeating");
  }

  // 2. Injected straggler: the victim's compute slows down by factor=.
  if (auto fired = injector.fire_detail(faults::kStraggler, step)) {
    Rank* victim = pick_victim(fired->rank);
    FEKF_CHECK(victim != nullptr, "straggler injection with no live ranks");
    victim->slowdown =
        fired->factor > 0.0 ? fired->factor : kDefaultStragglerFactor;
    ++ledger_.straggler_events;
    record(log, step, "straggler", "fault.straggler", "injected",
           "rank " + std::to_string(victim->id) + " slowed " +
               std::to_string(victim->slowdown) + "x");
  }

  // 3. Injected join: a fresh rank is admitted and catches up by receiving
  // the authoritative weights plus its covariance shard, point-to-point.
  if (injector.fire_detail(faults::kRankJoin, step)) {
    Rank joiner;
    joiner.id = next_id_++;
    members_.push_back(joiner);
    const i64 catchup_bytes = grad_payload_ + covariance_bytes_;
    const f64 catchup_s =
        config_.interconnect.message_seconds(catchup_bytes);
    ++ledger_.join_events;
    ledger_.join_bytes += catchup_bytes;
    ledger_.join_seconds += catchup_s;
    record(log, step, "rank_join", "fault.rank_join", "catchup",
           "rank " + std::to_string(members_.back().id) + " joined; caught "
           "up " + std::to_string(catchup_bytes) + " bytes");
  }

  // 4. Heartbeat failure detector: one evaluation per step boundary; a
  // silent rank accrues one miss per evaluation and is evicted at
  // miss_limit. Eviction branches ONLY on the miss count — the simulated
  // detection latency is reported, never consulted.
  for (Rank& r : members_) {
    if (!r.alive || !r.silent) continue;
    ++r.missed;
    if (r.missed >= config_.detector.miss_limit) {
      ledger_.detection_seconds += static_cast<f64>(r.missed) *
                                   config_.detector.heartbeat_period_s;
      evict(r, step, log);
    }
  }

  // 5. The step's heartbeat traffic (live ranks report in, overlapped — a
  // single message latency on the simulated clock).
  const i64 live = live_ranks();
  if (live > 1) {
    ledger_.heartbeats += live;
    ledger_.heartbeat_bytes += live * config_.detector.heartbeat_bytes;
    const f64 hb_s =
        config_.interconnect.message_seconds(config_.detector.heartbeat_bytes);
    ledger_.heartbeat_seconds += hb_s;
  }

  const f64 sim_after =
      ledger_.reshard_seconds + ledger_.join_seconds +
      ledger_.heartbeat_seconds;
  return sim_after - sim_before;
}

f64 VirtualCluster::allreduce(i64 payload_bytes) {
  const f64 s =
      config_.interconnect.allreduce_seconds(payload_bytes, live_ranks());
  ledger_.comm_seconds += s;
  return s;
}

f64 VirtualCluster::compute_seconds(
    const std::vector<f64>& measured_seconds) {
  f64 nominal = 0.0;
  f64 slowed = 0.0;
  std::size_t slot = 0;
  for (const Rank& r : members_) {
    if (!r.alive) continue;
    const f64 t = slot < measured_seconds.size() ? measured_seconds[slot]
                                                 : 0.0;
    nominal = std::max(nominal, t);
    slowed = std::max(slowed, t * r.slowdown);
    ++slot;
  }
  if (slowed <= nominal) return nominal;
  const f64 used =
      std::min(slowed, kStragglerWaitFactor * nominal);
  ledger_.straggler_wait_seconds += used - nominal;
  return used;
}

namespace {

/// The cluster's half of every FEKF update: shard the batch over the live
/// ranks, sum the weighted shard gradients and ABEs in rank order, and
/// charge the simulated clock and the ledger. The update's simulated time
/// is max(shard, straggler-bounded) + allreduce + (one) KF update; the
/// Kalman step itself is KalmanTrainer's, replicated on every rank, so it
/// is timed once.
struct ShardedReducer final : train::GradientReducer {
  ShardedReducer(DistributedResult& result, i64 grad_payload)
      : result(result), grad_payload(grad_payload) {}

  void begin_step(i64 step, FaultLog& log) override {
    result.simulated_seconds += cluster->poll_faults(step, log);
  }

  f64 reduce(std::span<const EnvPtr> batch, const Gradient& gradient,
             std::span<f64> grad) override {
    const i64 bs = static_cast<i64>(batch.size());
    const i64 ranks = cluster->live_ranks();
    std::fill(grad.begin(), grad.end(), 0.0);
    shard_grad.resize(grad.size());
    shard_seconds.assign(static_cast<std::size_t>(ranks), 0.0);
    f64 abe = 0.0;
    for (i64 r = 0; r < ranks; ++r) {
      const i64 lo = r * bs / ranks;
      const i64 hi = (r + 1) * bs / ranks;
      if (lo == hi) continue;
      obs::ScopedSpan shard_span("dist.shard", "dist");
      shard_span.arg("rank", static_cast<f64>(r));
      shard_span.arg("samples", static_cast<f64>(hi - lo));
      Stopwatch watch;
      const f64 shard_abe =
          gradient(batch.subspan(static_cast<std::size_t>(lo),
                                 static_cast<std::size_t>(hi - lo)),
                   shard_grad);
      shard_seconds[static_cast<std::size_t>(r)] = watch.seconds();
      const f64 shard_weight =
          static_cast<f64>(hi - lo) / static_cast<f64>(bs);
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] += shard_grad[i] * shard_weight;
      }
      abe += shard_abe * shard_weight;
    }
    compute_s = cluster->compute_seconds(shard_seconds);
    // Ring allreduce of the reduced gradient + the scalar error. P is NOT
    // communicated: every rank applies the identical Kalman step. The
    // collective is simulated, so its span is a near-zero sliver on the
    // real timeline whose args carry the ledger's accounting: the simulated
    // allreduce seconds and the bytes moved.
    const i64 error_payload = static_cast<i64>(sizeof(f64));
    comm_s =
        cluster->allreduce(grad_payload) + cluster->allreduce(error_payload);
    CommLedger& ledger = cluster->ledger();
    const i64 grad_bytes =
        InterconnectModel::allreduce_bytes(grad_payload, ranks);
    const i64 error_bytes =
        InterconnectModel::allreduce_bytes(error_payload, ranks);
    {
      obs::ScopedSpan comm_span("dist.allreduce", "dist");
      comm_span.arg("sim_seconds", comm_s);
      comm_span.arg("bytes", static_cast<f64>(grad_bytes + error_bytes));
    }
    ledger.gradient_bytes += grad_bytes;
    ledger.error_bytes += error_bytes;
    ++ledger.steps;
    if (obs::metrics_enabled()) {
      auto& metrics = obs::MetricsRegistry::instance();
      metrics.counter("dist.allreduce_bytes").inc(grad_bytes + error_bytes);
      metrics.counter("dist.allreduces").inc();
      metrics.gauge("dist.sim_comm_seconds").set(ledger.comm_seconds);
      // CommLedger mirror, so the telemetry sampler's time-series carries
      // the membership accounting live instead of only in the end-of-run
      // result.
      metrics.gauge("dist.reshard_seconds").set(ledger.reshard_seconds);
      metrics.gauge("dist.join_seconds").set(ledger.join_seconds);
      metrics.gauge("dist.detection_seconds").set(ledger.detection_seconds);
      metrics.gauge("dist.straggler_wait_seconds")
          .set(ledger.straggler_wait_seconds);
    }
    return abe;
  }

  void after_update(f64 kf_seconds) override {
    result.compute_seconds += compute_s + kf_seconds;
    result.simulated_seconds += compute_s + comm_s + kf_seconds;
    if (obs::metrics_enabled()) {
      // Per-step distribution (not just the running totals above):
      // bench_chaos reports its p50/p90/p99 for the churn scenario, where
      // stragglers and membership changes fatten the tail.
      obs::MetricsRegistry::instance()
          .histogram("dist.step_sim_seconds")
          .record(compute_s + comm_s + kf_seconds);
    }
  }

  // Distributed checkpoints also carry the membership table, so a resumed
  // run continues on the same live set.
  void capture(train::TrainingCheckpoint& ckpt) override {
    ckpt.membership = cluster->membership();
  }
  void restore(const train::TrainingCheckpoint& ckpt) override {
    if (ckpt.membership.present) cluster->restore_membership(ckpt.membership);
  }

  DistributedResult& result;
  const i64 grad_payload;
  /// Built once the trainer's filter reports its P footprint.
  std::optional<VirtualCluster> cluster;
  std::vector<f64> shard_grad;
  std::vector<f64> shard_seconds;
  f64 compute_s = 0.0;  ///< simulated compute of the update in flight
  f64 comm_s = 0.0;     ///< its simulated allreduce
};

}  // namespace

DistributedResult train_fekf_distributed(
    deepmd::DeepmdModel& model, std::span<const EnvPtr> train_envs,
    std::span<const EnvPtr> test_envs, const DistributedConfig& config) {
  config.validate();
  FEKF_CHECK(config.options.batch_size >= config.ranks,
             "global batch must cover all ranks");
  DistributedResult result;
  ShardedReducer reducer(
      result, model.num_parameters() * static_cast<i64>(sizeof(f64)));
  train::KalmanTrainer trainer(model, config.kalman, config.options, &reducer);
  reducer.cluster.emplace(config, reducer.grad_payload,
                          trainer.kalman()->p_bytes());
  result.train = trainer.train(train_envs, test_envs);
  // train() returns right after the converging evaluation.
  if (result.train.converged) {
    result.simulated_seconds_to_converge = result.simulated_seconds;
  }
  result.surviving_ranks = reducer.cluster->live_ranks();
  result.membership = reducer.cluster->membership();
  result.comm = reducer.cluster->ledger();
  return result;
}

}  // namespace fekf::dist
