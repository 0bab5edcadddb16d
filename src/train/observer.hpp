// Trainer observer hooks (DESIGN.md §11 "Observability").
//
// The resilient step loop shared by AdamTrainer and KalmanTrainer emits a
// small, stable set of events; observers subscribe to them without the
// trainers knowing what consumes the stream. The lcurve CSV writer is a
// port onto this interface, and online-learning integrations (loss
// dashboards, early-stopping policies, sample-selection triggers) attach
// the same way.
//
// Contract: hooks are invoked synchronously on the training thread, after
// the step/epoch state they describe is fully applied (a rolled-back step
// reports the rollback, never half-applied state). Observers must not
// mutate the trainer; exceptions thrown by a hook propagate and abort the
// run (an observer is part of the run's correctness surface, not a
// best-effort sink). Observer pointers in TrainOptions are non-owning and
// must outlive train().
#pragma once

#include <cstdio>
#include <string>

#include "core/fault.hpp"
#include "train/checkpoint.hpp"

namespace fekf::train {

/// One optimizer step, healthy or rolled back.
struct StepEvent {
  i64 step = 0;   ///< 1-based global optimizer step index
  i64 epoch = 0;  ///< epoch the step ran inside
  f64 loss = 0.0;        ///< summed |ABE| per update, or the Adam loss
  f64 grad_norm2 = 0.0;  ///< squared norm of the gathered gradient(s)
  f64 seconds = 0.0;     ///< wall time of the step (including recovery)
  bool rolled_back = false;  ///< a sentinel tripped and the step was undone
  std::string fault_kind;    ///< sentinel reason when rolled_back
};

/// One full-state checkpoint written to disk.
struct CheckpointEvent {
  i64 step = 0;
  std::string path;
  f64 seconds = 0.0;  ///< time spent serializing + writing
};

class TrainObserver {
 public:
  virtual ~TrainObserver() = default;
  virtual void on_step(const StepEvent&) {}
  virtual void on_eval(const EpochRecord&) {}
  virtual void on_checkpoint(const CheckpointEvent&) {}
  virtual void on_fault(const FaultEvent&) {}
};

/// The lcurve CSV header. The four *_e_offset/*_e_spread columns are the
/// per-atom energy residual's mean and spread (Metrics), in eV.
inline constexpr const char* kLcurveHeader =
    "epoch,seconds,train_e_rmse,train_f_rmse,test_e_rmse,test_f_rmse,"
    "train_e_offset,train_e_spread,test_e_offset,test_e_spread";

/// The lcurve.out port: one CSV row per epoch evaluation, streamed as the
/// run progresses (write_lcurve replays a finished history through it).
class LcurveObserver : public TrainObserver {
 public:
  explicit LcurveObserver(const std::string& path);
  ~LcurveObserver() override;
  LcurveObserver(const LcurveObserver&) = delete;
  LcurveObserver& operator=(const LcurveObserver&) = delete;

  void on_eval(const EpochRecord& record) override;

 private:
  std::FILE* file_;
};

}  // namespace fekf::train
