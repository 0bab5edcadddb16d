#include "dist/cluster.hpp"

#include <cmath>
#include <limits>

#include "core/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "train/observer.hpp"

namespace fekf::dist {

using train::EnvPtr;
using train::Measurement;

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
  FEKF_CHECK(std::isfinite(loss_prob) && loss_prob >= 0.0 && loss_prob < 1.0,
             "InterconnectModel.loss_prob must be in [0, 1) (got " +
                 std::to_string(loss_prob) + ")");
  FEKF_CHECK(std::isfinite(corrupt_prob) && corrupt_prob >= 0.0 &&
                 corrupt_prob < 1.0,
             "InterconnectModel.corrupt_prob must be in [0, 1) (got " +
                 std::to_string(corrupt_prob) + ")");
  FEKF_CHECK(max_retries >= 1,
             "InterconnectModel.max_retries must be >= 1 (got " +
                 std::to_string(max_retries) + ")");
  FEKF_CHECK(std::isfinite(retry_backoff_s) && retry_backoff_s >= 0.0,
             "InterconnectModel.retry_backoff_s must be finite and >= 0 "
             "(got " + std::to_string(retry_backoff_s) + ")");
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
  FEKF_CHECK(std::isfinite(straggler_wait_factor) &&
                 straggler_wait_factor >= 1.0,
             "DistributedConfig.straggler_wait_factor must be >= 1 (got " +
                 std::to_string(straggler_wait_factor) + ")");
}

VirtualCluster::VirtualCluster(const DistributedConfig& config,
                               i64 grad_payload_bytes, i64 covariance_bytes)
    : config_(config),
      grad_payload_(grad_payload_bytes),
      covariance_bytes_(covariance_bytes),
      link_rng_(config.options.seed ^ 0x6c1a7eULL) {
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

void VirtualCluster::evict(Rank& rank, i64 step, FaultLog& log,
                           const char* why) {
  FEKF_CHECK(live_ranks() > 1,
             "rank eviction left no surviving ranks (rank " +
                 std::to_string(rank.id) + ", " + why + ")");
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
         "rank " + std::to_string(rank.id) + " evicted (" + why + "); " +
             std::to_string(survivors) + " survivors");
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

  // 4. Straggler policy: under kDropReshard, ranks slower than the bounded
  // wait admits are evicted rather than waited for.
  if (config_.straggler_policy == StragglerPolicy::kDropReshard) {
    for (Rank& r : members_) {
      if (r.alive && r.slowdown > config_.straggler_wait_factor) {
        evict(r, step, log, "straggler beyond bounded wait");
      }
    }
  }

  // 5. Heartbeat failure detector: one evaluation per step boundary; a
  // silent rank accrues one miss per evaluation and is evicted at
  // miss_limit. Eviction branches ONLY on the miss count — the simulated
  // detection latency is reported, never consulted.
  for (Rank& r : members_) {
    if (!r.alive || !r.silent) continue;
    ++r.missed;
    if (r.missed >= config_.detector.miss_limit) {
      ledger_.detection_seconds += static_cast<f64>(r.missed) *
                                   config_.detector.heartbeat_period_s;
      evict(r, step, log, "heartbeat timeout");
    }
  }

  // 6. The step's heartbeat traffic (live ranks report in, overlapped — a
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

f64 VirtualCluster::allreduce(i64 payload_bytes, i64 step) {
  const i64 ranks = live_ranks();
  if (ranks <= 1) return 0.0;
  const InterconnectModel& net = config_.interconnect;
  auto& injector = FaultInjector::instance();
  const bool lossy = net.loss_prob > 0.0 || net.corrupt_prob > 0.0 ||
                     injector.armed(faults::kMsgDrop) ||
                     injector.armed(faults::kMsgCorrupt);
  if (!lossy) {
    const f64 s = net.allreduce_seconds(payload_bytes, ranks);
    ledger_.comm_seconds += s;
    return s;
  }

  // Per-message simulation: 2(r-1) hop rounds, r concurrent messages per
  // round; a round lasts as long as its slowest message, including retry
  // backoff. With every draw passing this reduces to the closed-form
  // alpha-beta cost, so arming a zero-probability fault costs nothing.
  const f64 chunk =
      static_cast<f64>(payload_bytes) / static_cast<f64>(ranks);
  const f64 msg_s = net.latency_s + chunk / (net.bandwidth_gbps * 1e9);
  const i64 rounds = 2 * (ranks - 1);
  f64 total = 0.0;
  for (i64 round = 0; round < rounds; ++round) {
    f64 round_s = msg_s;
    for (i64 m = 0; m < ranks; ++m) {
      f64 t = msg_s;
      i64 failures = 0;
      while (true) {
        const bool dropped =
            (net.loss_prob > 0.0 && link_rng_.uniform() < net.loss_prob) ||
            injector.fire(faults::kMsgDrop, step);
        bool corrupted = false;
        if (!dropped) {
          corrupted = (net.corrupt_prob > 0.0 &&
                       link_rng_.uniform() < net.corrupt_prob) ||
                      injector.fire(faults::kMsgCorrupt, step);
        }
        if (!dropped && !corrupted) break;
        if (dropped) {
          ++ledger_.msg_drops;
        } else {
          ++ledger_.msg_corrupts;
        }
        ++failures;
        if (failures > net.max_retries) {
          // Retry budget exhausted: force the message through the slow
          // side channel and flag the sender; the failure detector decides
          // its fate at the next step boundary.
          i64 slot = 0;
          for (Rank& r : members_) {
            if (!r.alive) continue;
            if (slot == m) {
              r.silent = true;
              break;
            }
            ++slot;
          }
          break;
        }
        const f64 backoff =
            net.retry_backoff_s * static_cast<f64>(1LL << (failures - 1));
        t += backoff + msg_s;
        ++ledger_.retries;
        ledger_.retry_seconds += backoff + msg_s;
      }
      round_s = std::max(round_s, t);
    }
    total += round_s;
  }
  ledger_.comm_seconds += total;
  return total;
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
      std::min(slowed, config_.straggler_wait_factor * nominal);
  ledger_.straggler_wait_seconds += used - nominal;
  return used;
}

namespace {

/// Reduce a shard's measurement into flat gradient + ABE, measuring the
/// local compute time.
struct ShardResult {
  std::vector<f64> grad;
  f64 abe = 0.0;
  f64 seconds = 0.0;
};

ShardResult run_shard(deepmd::DeepmdModel& /*model*/, optim::FlatParams& flat,
                      std::span<const EnvPtr> shard,
                      const std::function<Measurement(std::span<const EnvPtr>)>&
                          measure) {
  ShardResult out;
  out.grad.resize(static_cast<std::size_t>(flat.size()));
  Stopwatch watch;
  Measurement m = measure(shard);
  auto params = flat.params();
  auto g = ag::grad(m.m, params);
  flat.gather_grads(g, out.grad);
  out.abe = m.abe;
  out.seconds = watch.seconds();
  return out;
}

}  // namespace

DistributedResult train_fekf_distributed(
    deepmd::DeepmdModel& model, std::span<const EnvPtr> train_envs,
    std::span<const EnvPtr> test_envs, const DistributedConfig& config) {
  config.validate();
  const train::TrainOptions& options = config.options;
  FEKF_CHECK(options.batch_size >= config.ranks,
             "global batch must cover all ranks");
  FEKF_CHECK(!train_envs.empty(), "empty training set");

  DistributedResult result;
  optim::FlatParams flat(model.parameters());
  auto blocks =
      optim::split_blocks(model.parameter_layout(), config.kalman.blocksize);
  optim::KalmanOptimizer kalman(std::move(blocks), config.kalman);
  std::vector<f64> weights(static_cast<std::size_t>(flat.size()));
  std::vector<f64> grad(static_cast<std::size_t>(flat.size()));
  std::vector<f64> snap_weights;
  flat.gather(weights);

  const i64 grad_payload = flat.size() * static_cast<i64>(sizeof(f64));
  VirtualCluster cluster(config, grad_payload, kalman.p_bytes());
  const i64 natoms = train_envs.front()->natoms;
  // KalmanTrainer's force-group stream and quasi-learning-rate rule, so a
  // 1-rank run reproduces KalmanTrainer FEKF bit for bit.
  Rng group_rng(options.seed ^ 0x9e3779b9ULL);

  i64 current_step = 0;
  train::StepSignals signals;
  std::vector<f64> shard_seconds;

  // One reduced update: run every live rank's shard for real, take the
  // simulated step time as max(shard, straggler-bounded) + allreduce +
  // (one) KF update.
  auto reduced_update =
      [&](std::span<const EnvPtr> batch,
          const std::function<Measurement(std::span<const EnvPtr>)>& measure,
          std::optional<f64> step_norm_cap) {
        const i64 bs = static_cast<i64>(batch.size());
        const i64 ranks = cluster.live_ranks();
        std::fill(grad.begin(), grad.end(), 0.0);
        shard_seconds.assign(static_cast<std::size_t>(ranks), 0.0);
        f64 abe = 0.0;
        for (i64 r = 0; r < ranks; ++r) {
          const i64 lo = r * bs / ranks;
          const i64 hi = (r + 1) * bs / ranks;
          if (lo == hi) continue;
          obs::ScopedSpan shard_span("dist.shard", "dist");
          shard_span.arg("rank", static_cast<f64>(r));
          shard_span.arg("samples", static_cast<f64>(hi - lo));
          ShardResult shard = run_shard(
              model, flat, batch.subspan(static_cast<std::size_t>(lo),
                                         static_cast<std::size_t>(hi - lo)),
              measure);
          const f64 shard_weight =
              static_cast<f64>(hi - lo) / static_cast<f64>(bs);
          for (std::size_t i = 0; i < grad.size(); ++i) {
            grad[i] += shard.grad[i] * shard_weight;
          }
          abe += shard.abe * shard_weight;
          shard_seconds[static_cast<std::size_t>(r)] = shard.seconds;
        }
        if (FaultInjector::instance().fire(faults::kNanGrad, current_step)) {
          grad[0] = std::numeric_limits<f64>::quiet_NaN();
        }
        signals.loss += std::abs(abe);
        for (const f64 g : grad) signals.grad_norm2 += g * g;
        const f64 compute_s = cluster.compute_seconds(shard_seconds);
        // Ring allreduce of the reduced gradient + the scalar error. P is
        // NOT communicated: every rank applies the identical update below.
        // The collective is simulated, so its span is a near-zero sliver on
        // the real timeline whose args carry the ledger's accounting: the
        // simulated allreduce seconds and the bytes moved.
        const f64 comm_s =
            cluster.allreduce(grad_payload, current_step) +
            cluster.allreduce(static_cast<i64>(sizeof(f64)), current_step);
        const i64 comm_bytes =
            InterconnectModel::allreduce_bytes(grad_payload, ranks) +
            InterconnectModel::allreduce_bytes(static_cast<i64>(sizeof(f64)),
                                               ranks);
        {
          obs::ScopedSpan comm_span("dist.allreduce", "dist");
          comm_span.arg("sim_seconds", comm_s);
          comm_span.arg("bytes", static_cast<f64>(comm_bytes));
        }
        CommLedger& ledger = cluster.ledger();
        ledger.gradient_bytes +=
            InterconnectModel::allreduce_bytes(grad_payload, ranks);
        ledger.error_bytes += InterconnectModel::allreduce_bytes(
            static_cast<i64>(sizeof(f64)), ranks);
        ++ledger.steps;
        if (obs::metrics_enabled()) {
          auto& metrics = obs::MetricsRegistry::instance();
          metrics.counter("dist.allreduce_bytes")
              .inc(comm_bytes);
          metrics.counter("dist.allreduces").inc();
          metrics.gauge("dist.sim_comm_seconds")
              .set(ledger.comm_seconds);
          // CommLedger mirror, so the telemetry sampler's time-series
          // carries the lossy-link / membership accounting live instead
          // of only in the end-of-run TrainResult.
          metrics.gauge("dist.msg_drops")
              .set(static_cast<f64>(ledger.msg_drops));
          metrics.gauge("dist.msg_corrupts")
              .set(static_cast<f64>(ledger.msg_corrupts));
          metrics.gauge("dist.retries")
              .set(static_cast<f64>(ledger.retries));
          metrics.gauge("dist.retry_seconds").set(ledger.retry_seconds);
          metrics.gauge("dist.reshard_seconds").set(ledger.reshard_seconds);
          metrics.gauge("dist.join_seconds").set(ledger.join_seconds);
          metrics.gauge("dist.detection_seconds")
              .set(ledger.detection_seconds);
          metrics.gauge("dist.straggler_wait_seconds")
              .set(ledger.straggler_wait_seconds);
        }

        Stopwatch kf_watch;
        f64 kf_seconds = 0.0;
        {
          obs::ScopedSpan kf_span("kf_update", "train");
          const f64 factor = options.qlr_factor >= 0.0
                                 ? options.qlr_factor
                                 : std::sqrt(static_cast<f64>(bs));
          kalman.update(grad, factor * abe, weights, step_norm_cap, abe);
          flat.scatter(weights);
          kf_seconds = kf_watch.seconds();
        }

        result.compute_seconds += compute_s + kf_seconds;
        result.simulated_seconds += compute_s + comm_s + kf_seconds;
        if (obs::metrics_enabled()) {
          // Per-step distribution (not just the running totals above):
          // bench_chaos reports its p50/p90/p99 per sweep cell, where the
          // straggler and lossy-link arms show up as a fattened tail.
          obs::MetricsRegistry::instance()
              .histogram("dist.step_sim_seconds")
              .record(compute_s + comm_s + kf_seconds);
        }
      };

  train::ResilienceHooks hooks;
  hooks.run_step = [&](std::span<const EnvPtr> batch, i64 step_index,
                       FaultLog& log) -> train::StepSignals {
    current_step = step_index;
    signals = {};
    result.simulated_seconds += cluster.poll_faults(step_index, log);
    reduced_update(
        batch,
        [&](std::span<const EnvPtr> shard) {
          return train::energy_measurement(model, shard);
        },
        /*step_norm_cap=*/0.0);
    auto groups = train::make_force_groups(
        natoms, options.force_updates_per_step, group_rng);
    for (const auto& group : groups) {
      reduced_update(
          batch,
          [&](std::span<const EnvPtr> shard) {
            return train::force_measurement(model, shard, group,
                                            options.force_prefactor);
          },
          /*step_norm_cap=*/std::nullopt);
    }
    return signals;
  };
  hooks.snapshot = [&] {
    obs::ScopedSpan span("train.snapshot", "train");
    snap_weights = weights;
    kalman.snapshot();
  };
  hooks.rollback = [&] {
    obs::ScopedSpan span("train.rollback", "train");
    weights = snap_weights;
    kalman.rollback();
    kalman.recondition();
    flat.scatter(weights);
  };
  hooks.covariance_health = [&] { return kalman.last_max_diag(); };
  // Distributed checkpoints also carry the membership table, so a resumed
  // run continues on the same live set.
  hooks.capture = [&](train::TrainingCheckpoint& ckpt) {
    ckpt.optimizer.kind = train::OptimizerCheckpoint::Kind::kKalman;
    ckpt.optimizer.kalman = kalman.state();
    ckpt.has_group_rng = true;
    ckpt.group_rng = group_rng.state();
    ckpt.membership = cluster.membership();
  };
  hooks.restore = [&](const train::TrainingCheckpoint& ckpt) {
    FEKF_CHECK(ckpt.optimizer.kind ==
                   train::OptimizerCheckpoint::Kind::kKalman,
               "checkpoint optimizer state is not a shared-P Kalman filter");
    FEKF_CHECK(ckpt.has_group_rng,
               "checkpoint is missing the force-group RNG stream");
    kalman.set_state(ckpt.optimizer.kalman);
    group_rng.set_state(ckpt.group_rng);
    if (ckpt.membership.present) cluster.restore_membership(ckpt.membership);
  };

  result.train = train::run_resilient_epochs(model, train_envs, test_envs,
                                             options, flat, weights, hooks);
  // The loop returns right after the converging evaluation.
  if (result.train.converged) {
    result.simulated_seconds_to_converge = result.simulated_seconds;
  }
  result.surviving_ranks = cluster.live_ranks();
  result.membership = cluster.membership();
  result.comm = cluster.ledger();
  return result;
}

}  // namespace fekf::dist
