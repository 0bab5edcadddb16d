// Elastic virtual cluster for distributed FEKF training (paper §3.3,
// Table 5; ROADMAP item 4's production half).
//
// The paper trains on up to 16 A100s over 25 GB/s RoCE with Horovod ring
// allreduce. This repo has one CPU core, so the cluster is virtual: every
// rank's shard is executed for real (sequentially) and the SIMULATED
// wall-clock of a step is
//
//     max_r(shard compute) + ring_allreduce(gradient bytes) + KF update,
//
// with the interconnect described by an alpha-beta (latency-bandwidth)
// model defaulting to the paper's RoCE figures. Compute-time ratios between
// optimizers are measured, not modeled — only the network is modeled.
//
// The communication ledger reproduces the §3.3 analysis: FEKF allreduces
// only the reduced gradient (+ one scalar error), never the covariance P,
// because the early reduction keeps every rank's P bit-identical. Naive-EKF
// would have to ship its diverged per-sample P replicas; that volume is
// reported analytically for the comparison bench.
//
// Elastic membership (VirtualCluster). The ring is no longer a fixed,
// healthy set: ranks can be silenced (FEKF_FAULT_SPEC=rank_fail), join
// (rank_join, receiving a weight + covariance-shard catch-up transfer),
// straggle (straggler, a per-rank compute slowdown bounded by a wait
// policy), and drop or corrupt ring messages (msg_drop / msg_corrupt,
// retried with exponential backoff). A heartbeat failure detector evicts
// silent ranks after `miss_limit` missed heartbeats; heartbeats are
// evaluated once per training step at the step boundary, so eviction
// decisions depend only on deterministic step counts — never on measured
// wall-clock — and a spec replays identically run to run.
//
// Training runs on the resilient epoch loop every trainer shares
// (train::run_resilient_epochs, DESIGN.md §10): the distributed step differs
// from KalmanTrainer's FEKF step only in how (g, ABE) is formed, so the
// divergence sentinels, nan_grad and corrupt_ckpt injection, checkpoints,
// max_steps and the observers cover the cluster path too. One rank with no
// faults is KalmanTrainer FEKF bit for bit (tests/test_dist.cpp).
//
// Determinism contract (tests/test_dist_elastic.cpp):
//   - Link faults (msg_drop / msg_corrupt) and a straggler under the
//     kWait policy cost only simulated time. Final weights are
//     BIT-IDENTICAL to the fault-free run.
//   - Membership changes (rank_fail eviction, rank_join, kDropReshard
//     straggler eviction) change the live rank count, hence the shard
//     split and the floating-point reduction — final weights differ from
//     the fault-free run but are bit-identical across two invocations of
//     the same spec.
#pragma once

#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace fekf::dist {

struct InterconnectModel {
  f64 latency_s = 5e-6;        ///< per-hop message latency
  f64 bandwidth_gbps = 25.0;   ///< GB/s per link (paper: RoCE 25 GB/s)

  // Degraded-link model: every simulated ring message is independently
  // dropped / delivered-corrupted with these probabilities (drawn from the
  // cluster's seeded link RNG, so runs stay reproducible), detected by the
  // receiver, and retried with exponential backoff. A message that still
  // fails after max_retries retries is forced through on the side channel
  // and its sender is marked silent for the failure detector to judge.
  f64 loss_prob = 0.0;         ///< P(message dropped), [0, 1)
  f64 corrupt_prob = 0.0;      ///< P(message corrupted in flight), [0, 1)
  i64 max_retries = 3;         ///< retries per message before giving up
  f64 retry_backoff_s = 50e-6; ///< backoff before retry i is 2^(i-1) * this

  /// Reject non-positive bandwidth, negative latency, out-of-range
  /// loss/corruption probabilities and a non-positive retry budget.
  void validate() const;

  /// One point-to-point message of `bytes` (alpha-beta).
  f64 message_seconds(i64 bytes) const {
    return latency_s + static_cast<f64>(bytes) / (bandwidth_gbps * 1e9);
  }

  /// Ring allreduce: 2 (r-1) hops, each moving bytes/r.
  f64 allreduce_seconds(i64 bytes, i64 ranks) const {
    if (ranks <= 1) return 0.0;
    const f64 hops = 2.0 * static_cast<f64>(ranks - 1);
    const f64 chunk = static_cast<f64>(bytes) / static_cast<f64>(ranks);
    return hops * (latency_s + chunk / (bandwidth_gbps * 1e9));
  }

  /// Allreduce traffic in the paper's accounting: (r - 1) * payload
  /// (§3.3: "the communication of gradients is (#GPUs-1) x Mem(g)").
  static i64 allreduce_bytes(i64 payload, i64 ranks) {
    if (ranks <= 1) return 0;
    return (ranks - 1) * payload;
  }
};

/// Heartbeat failure detection. Every live rank heartbeats once per
/// training step; a silent rank accrues one miss per step boundary and is
/// evicted when missed >= miss_limit. miss_limit = 1 reproduces the
/// pre-elastic behavior (silenced at step N, evicted and resharded at step
/// N before any compute). Detection latency is REPORTED in simulated
/// seconds (missed * heartbeat_period_s) but never branched on, which is
/// what keeps eviction deterministic.
struct FailureDetectorConfig {
  i64 miss_limit = 1;          ///< consecutive misses before eviction
  f64 heartbeat_period_s = 1e-3;  ///< simulated heartbeat interval
  i64 heartbeat_bytes = 64;    ///< per-heartbeat wire size

  void validate() const;
};

/// What the cluster does about a straggler whose slowdown exceeds the
/// bounded wait.
enum class StragglerPolicy {
  kWait,         ///< wait, but at most straggler_wait_factor * nominal max
  kDropReshard,  ///< evict ranks slower than the bound and reshard
};

struct CommLedger {
  i64 gradient_bytes = 0;  ///< cumulative allreduced gradient payload
  i64 error_bytes = 0;     ///< cumulative allreduced ABE scalars
  i64 steps = 0;
  f64 comm_seconds = 0.0;  ///< simulated time spent in allreduce
  // Rank-failure recovery: when a rank is evicted its shard is
  // redistributed across the survivors, who re-sync the authoritative
  // weight vector — charged to the simulated clock as one weight-payload
  // allreduce among the survivors.
  i64 reshard_events = 0;
  i64 reshard_bytes = 0;
  f64 reshard_seconds = 0.0;
  // Membership lifecycle: evictions decided by the heartbeat detector (or
  // the kDropReshard straggler policy), and joins with their catch-up
  // transfer (weights + covariance shard, point-to-point to the joiner).
  i64 evictions = 0;
  f64 detection_seconds = 0.0;  ///< simulated heartbeat-detection latency
  i64 join_events = 0;
  i64 join_bytes = 0;
  f64 join_seconds = 0.0;
  // Degraded links: per-message drops/corruptions and the retry traffic
  // they cost (backoff + re-send, the amount allreduce ran over ideal).
  i64 msg_drops = 0;
  i64 msg_corrupts = 0;
  i64 retries = 0;
  f64 retry_seconds = 0.0;
  // Stragglers: injected slowdown events and the extra simulated wait the
  // bounded-wait policy admitted beyond the nominal compute max.
  i64 straggler_events = 0;
  f64 straggler_wait_seconds = 0.0;
  // Heartbeat traffic (the detector's cost of doing business).
  i64 heartbeats = 0;
  i64 heartbeat_bytes = 0;
  f64 heartbeat_seconds = 0.0;
};

struct DistributedConfig {
  i64 ranks = 1;
  train::TrainOptions options;       ///< batch_size = GLOBAL batch
  optim::KalmanConfig kalman;
  InterconnectModel interconnect;
  FailureDetectorConfig detector;
  StragglerPolicy straggler_policy = StragglerPolicy::kWait;
  /// Bounded wait: a step waits for stragglers at most this multiple of
  /// the nominal (un-slowed) compute max. Under kDropReshard, ranks whose
  /// slowdown exceeds it are evicted instead.
  f64 straggler_wait_factor = 3.0;

  /// Validates ranks, options, kalman, interconnect, detector, and the
  /// straggler knobs together.
  void validate() const;
};

struct DistributedResult {
  train::TrainResult train;     ///< history with MEASURED local seconds
  f64 simulated_seconds = 0.0;  ///< virtual-cluster wall clock, total
  f64 simulated_seconds_to_converge = -1.0;
  f64 compute_seconds = 0.0;    ///< simulated max-rank compute component
  CommLedger comm;
  i64 surviving_ranks = 0;      ///< ranks still alive when the run ended
  train::MembershipCheckpoint membership;  ///< final membership table
};

/// Membership lifecycle + degraded-link simulation for the elastic virtual
/// cluster. Owns the member table (stable ids, never reused), the seeded
/// link RNG, and the CommLedger; train_fekf_distributed drives it once per
/// step (poll_faults) and once per collective (allreduce /
/// compute_seconds). The constructor validates the FULL config — including
/// the interconnect and detector knobs — so a bad bandwidth or miss limit
/// is rejected at construction, not at first use.
class VirtualCluster {
 public:
  using Rank = train::MembershipCheckpoint::Rank;

  /// `grad_payload_bytes` is the flat-gradient wire size; `covariance_bytes`
  /// the persistent P footprint — together the joiner's catch-up transfer.
  VirtualCluster(const DistributedConfig& config, i64 grad_payload_bytes,
                 i64 covariance_bytes);

  i64 live_ranks() const;
  const std::vector<Rank>& members() const { return members_; }

  /// Snapshot / restore the membership table (checkpoint resume). Restore
  /// validates the table (at least one live rank, fresh next_id).
  train::MembershipCheckpoint membership() const;
  void restore_membership(const train::MembershipCheckpoint& m);

  /// Step-boundary poll, in deterministic order: injected rank_fail
  /// (silences a rank), straggler (sets a slowdown factor), rank_join
  /// (admits a rank and charges the catch-up transfer), the kDropReshard
  /// straggler policy, the heartbeat detector (evict + reshard), then the
  /// step's heartbeat traffic. Recovery events are appended to `log`,
  /// mirrored to the obs layer, and fanned out to the configured
  /// observers. Returns the simulated seconds charged.
  f64 poll_faults(i64 step, FaultLog& log);

  /// Simulated ring allreduce of `payload_bytes` among the live ranks.
  /// With loss/corruption armed, each of the 2(r-1) hop rounds simulates
  /// its r messages individually (drop/corrupt draws, exponential-backoff
  /// retries); otherwise charges the closed-form alpha-beta cost. Updates
  /// comm_seconds and the link fields of the ledger; returns the seconds.
  f64 allreduce(i64 payload_bytes, i64 step);

  /// Straggler-aware simulated compute time of one collective:
  /// `measured_seconds[slot]` is the real compute time of live slot
  /// `slot`; each is scaled by its rank's slowdown and the bounded-wait
  /// policy caps the result at straggler_wait_factor * nominal max.
  f64 compute_seconds(const std::vector<f64>& measured_seconds);

  CommLedger& ledger() { return ledger_; }
  const CommLedger& ledger() const { return ledger_; }

 private:
  Rank* find_live(i64 id);
  Rank* pick_victim(i64 preferred_id);
  /// Evict `rank` (alive -> false), charge the survivor reshard, log it.
  void evict(Rank& rank, i64 step, FaultLog& log, const char* why);
  /// trace_name must be a string literal (TraceEvent keeps the pointer).
  void record(FaultLog& log, i64 step, const char* kind,
              const char* trace_name, const char* action, std::string detail);

  const DistributedConfig& config_;
  i64 grad_payload_;
  i64 covariance_bytes_;
  std::vector<Rank> members_;
  i64 next_id_ = 0;
  Rng link_rng_;
  CommLedger ledger_;
};

/// Data-parallel FEKF on the virtual cluster. Each step polls the cluster's
/// faults, then shards the global batch across the LIVE ranks, reduces
/// gradients/errors, and applies one shared Kalman update (replicated
/// deterministically on every rank, so it is timed once). Every
/// TrainOptions field is honored as in KalmanTrainer; distributed
/// checkpoints also carry the membership table, so a resumed run continues
/// with the same live set and reproduces the uninterrupted weight
/// trajectory bit-for-bit (the simulated clock and ledger restart at zero
/// and cover only the resumed segment). `train.history[].cumulative_seconds`
/// is measured wall time; `simulated_seconds_to_converge` is the simulated
/// clock at the converging evaluation.
DistributedResult train_fekf_distributed(deepmd::DeepmdModel& model,
                                         std::span<const train::EnvPtr> train_envs,
                                         std::span<const train::EnvPtr> test_envs,
                                         const DistributedConfig& config);

}  // namespace fekf::dist
