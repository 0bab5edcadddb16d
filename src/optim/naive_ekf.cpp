#include "optim/naive_ekf.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace fekf::optim {

NaiveEkf::NaiveEkf(std::vector<BlockSpec> blocks, KalmanConfig config,
                   i64 slots) {
  FEKF_CHECK(slots >= 1, "need at least one slot");
  replicas_.reserve(static_cast<std::size_t>(slots));
  for (i64 s = 0; s < slots; ++s) {
    replicas_.push_back(std::make_unique<KalmanOptimizer>(blocks, config));
  }
  increment_.assign(
      static_cast<std::size_t>(replicas_.front()->total_size()), 0.0);
}

void NaiveEkf::accumulate(i64 slot, std::span<const f64> g, f64 kscale) {
  FEKF_CHECK(slot >= 0 && slot < slots(), "slot out of range");
  obs::ScopedSpan span("naive_ekf.accumulate", "optim");
  span.arg("slot", static_cast<f64>(slot));
  // Run the slot's Kalman update against a zero weight vector to obtain
  // this sample's increment K * kscale, then fold it into the mean.
  std::vector<f64> delta(increment_.size(), 0.0);
  replicas_[static_cast<std::size_t>(slot)]->update(g, kscale, delta);
  for (std::size_t i = 0; i < increment_.size(); ++i) {
    increment_[i] += delta[i];
  }
  ++accumulated_;
}

void NaiveEkf::commit(std::span<f64> w) {
  obs::ScopedSpan span("naive_ekf.commit", "optim");
  FEKF_CHECK(w.size() == increment_.size(), "weight size mismatch");
  FEKF_CHECK(accumulated_ > 0, "commit without accumulated samples");
  const f64 inv = 1.0 / static_cast<f64>(accumulated_);
  for (std::size_t i = 0; i < increment_.size(); ++i) {
    w[i] += increment_[i] * inv;
    increment_[i] = 0.0;
  }
  accumulated_ = 0;
}

void NaiveEkf::abort_accumulation() {
  std::fill(increment_.begin(), increment_.end(), 0.0);
  accumulated_ = 0;
}

std::vector<KalmanState> NaiveEkf::state() const {
  std::vector<KalmanState> out;
  out.reserve(replicas_.size());
  for (const auto& r : replicas_) out.push_back(r->state());
  return out;
}

void NaiveEkf::set_state(const std::vector<KalmanState>& replicas) {
  FEKF_CHECK(replicas.size() == replicas_.size(),
             "NaiveEkf state has " + std::to_string(replicas.size()) +
                 " replicas, optimizer has " +
                 std::to_string(replicas_.size()));
  for (std::size_t s = 0; s < replicas_.size(); ++s) {
    replicas_[s]->set_state(replicas[s]);
  }
  abort_accumulation();
}

void NaiveEkf::snapshot() {
  for (const auto& r : replicas_) r->snapshot();
}

void NaiveEkf::rollback() {
  for (const auto& r : replicas_) r->rollback();
  abort_accumulation();
}

f64 NaiveEkf::last_max_diag() const {
  f64 max_diag = 0.0;
  for (const auto& r : replicas_) {
    const f64 d = r->last_max_diag();
    if (!std::isfinite(d)) return d;
    max_diag = std::max(max_diag, d);
  }
  return max_diag;
}

void NaiveEkf::recondition() {
  for (const auto& r : replicas_) r->recondition();
}

i64 NaiveEkf::p_bytes() const {
  return slots() * replicas_.front()->p_bytes();
}

}  // namespace fekf::optim
