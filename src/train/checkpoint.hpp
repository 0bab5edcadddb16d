// Full-state training checkpoints.
//
// A model file (deepmd/serialize.hpp) warm-restarts *weights*; resuming a
// training run needs everything else the trajectory depends on: the EKF
// covariance blocks (or Adam moments), the f64 flat weight vector that is
// authoritative over the f32 model leaves, the batch-sampler permutation
// and RNG stream, the force-group RNG, and the epoch/step counters. A
// TrainingCheckpoint round-trips all of it bit-exactly (hex floats), so a
// run killed at a checkpoint boundary and resumed reproduces the
// uninterrupted trajectory bit-for-bit — the warm-restart contract the
// online-learning workflow (ALKPU-style active learning) builds on.
//
// On disk: one text file, "fekf-training-checkpoint-v1 <bytes> <fnv64>"
// header followed by the body the header checksums. Truncated or corrupted
// files fail loudly at load (checksum/byte-count mismatch); writes are
// atomic (temp file + rename), so a crash mid-write never destroys the
// previous checkpoint.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "data/dataset.hpp"
#include "deepmd/serialize.hpp"
#include "optim/adam.hpp"
#include "optim/kalman.hpp"
#include "train/metrics.hpp"

namespace fekf::train {

struct EpochRecord {
  i64 epoch = 0;
  Metrics train;
  Metrics test;
  f64 cumulative_seconds = 0.0;
};

/// Which optimizer the checkpoint carries, and its full state.
struct OptimizerCheckpoint {
  enum class Kind { kNone, kKalman, kAdam };
  Kind kind = Kind::kNone;
  optim::KalmanState kalman;  ///< kKalman
  optim::AdamState adam;      ///< kAdam
};

/// Elastic virtual-cluster membership (dist/cluster.hpp). Lives here, not
/// in dist, because dist already depends on train; the cluster fills it in
/// when checkpointing so a resumed distributed run continues with the same
/// live set, straggler factors and detector miss counts — resuming with
/// fewer live ranks than the original would silently change the shard
/// split and break the bit-identical-resume contract.
struct MembershipCheckpoint {
  struct Rank {
    i64 id = 0;          ///< stable rank id (never reused after eviction)
    bool alive = true;   ///< participates in sharding + allreduce
    bool silent = false; ///< stopped heartbeating; detector is counting
    f64 slowdown = 1.0;  ///< straggler compute multiplier (1 = nominal)
    i64 missed = 0;      ///< consecutive heartbeats missed so far
  };
  bool present = false;  ///< single-process runs leave this off
  i64 next_id = 0;       ///< id the next joining rank receives
  std::vector<Rank> ranks;
};

struct TrainingCheckpoint {
  i64 epoch = 1;  ///< epoch the run was inside when checkpointed
  i64 steps = 0;  ///< optimizer steps completed so far

  /// Flat-parameter layout (leaf name, element count) — validated against
  /// the resuming model so a checkpoint can never be scattered into a
  /// mismatched architecture.
  std::vector<std::pair<std::string, i64>> layout;
  /// The authoritative f64 weight vector (model f32 leaves are derived
  /// from it by FlatParams::scatter).
  std::vector<f64> weights;

  OptimizerCheckpoint optimizer;
  data::BatchSampler::State sampler;
  bool has_group_rng = false;  ///< Kalman trainers carry the force-group RNG
  RngState group_rng;

  std::vector<EpochRecord> history;  ///< epochs completed before the cut
  FaultLog faults;                   ///< recovery events so far
  MembershipCheckpoint membership;   ///< elastic-cluster runs only
};

/// Serialize checkpoint + model to `path`. Atomic (temp file + rename);
/// the header records body length and FNV-1a checksum.
void save_checkpoint(const TrainingCheckpoint& checkpoint,
                     const deepmd::DeepmdModel& model,
                     const std::string& path);

struct LoadedCheckpoint {
  TrainingCheckpoint state;
  deepmd::DeepmdModel model;
};

/// Load and validate a checkpoint. Every failure — wrong magic, truncated
/// body, checksum mismatch, malformed token — is a single-line Error
/// naming the file, the line, and the expectation.
LoadedCheckpoint load_checkpoint(const std::string& path);

}  // namespace fekf::train
