// Naive-EKF: the fusiform-shaped ("computing-then-aggregation") multi-sample
// dataflow of Figure 5(a) / Table 2 row 3.
//
// Every sample in the batch carries its own covariance replica P_s and runs
// a full Kalman update; the per-sample weight increments K_s * ABE_s are
// averaged afterwards. This is the theoretically straightforward
// E(K * ABE) batching — and the strawman the paper's FEKF improves on: its
// memory footprint is batch_size copies of P, and in distributed training
// the diverging replicas must be communicated. Both costs are surfaced by
// the accessors below and measured in bench_comm_memory.
#pragma once

#include <memory>

#include "optim/kalman.hpp"

namespace fekf::optim {

class NaiveEkf {
 public:
  /// `slots` = number of concurrent per-sample covariance replicas (the
  /// mini-batch size).
  NaiveEkf(std::vector<BlockSpec> blocks, KalmanConfig config, i64 slots);

  /// Accumulate sample `slot`'s update into the pending mean increment.
  /// `g` is that sample's measurement gradient, `kscale` its ABE.
  void accumulate(i64 slot, std::span<const f64> g, f64 kscale);

  /// Apply the averaged increment of the samples accumulated since the
  /// last commit to `w` and clear the accumulator.
  void commit(std::span<f64> w);

  /// Discard a partially accumulated batch (exception recovery): clears
  /// the pending increment so the next accumulate/commit cycle starts
  /// clean. Replica covariances keep whatever updates already ran; restore
  /// them via rollback (or set_state) for full-step rollback.
  void abort_accumulation();

  /// Deep copy / restore of every replica's covariance state (the
  /// checkpoint path). Only meaningful at commit boundaries; set_state
  /// also clears any pending accumulation (a restored step starts from a
  /// clean accumulator).
  std::vector<KalmanState> state() const;
  void set_state(const std::vector<KalmanState>& replicas);

  /// Sentinel snapshot / rollback of every replica, by ping-pong
  /// (KalmanOptimizer::snapshot): no copy. rollback also clears any
  /// pending accumulation.
  void snapshot();
  void rollback();

  /// Largest covariance diagonal across replicas after the most recent
  /// accumulate() — the sentinels' P-health signal.
  f64 last_max_diag() const;

  /// Rescale every replica's unhealthy covariance back toward p_init.
  void recondition();

  i64 slots() const { return static_cast<i64>(replicas_.size()); }

  /// Total P footprint: slots x blockwise P (the §3.3 memory blow-up).
  i64 p_bytes() const;

  /// Bytes of covariance state that would need synchronizing across ranks
  /// per step in a distributed setting (all replicas, since they diverge).
  i64 comm_bytes_per_step() const { return p_bytes(); }

 private:
  std::vector<std::unique_ptr<KalmanOptimizer>> replicas_;
  std::vector<f64> increment_;
  i64 accumulated_ = 0;
};

}  // namespace fekf::optim
