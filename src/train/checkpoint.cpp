#include "train/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/trace.hpp"
#include "tensor/kernels.hpp"

namespace fekf::train {

namespace {

constexpr const char* kMagic = "fekf-training-checkpoint-v1";

void write_rng(TextWriter& w, const RngState& rng) {
  w.key("rng");
  for (const u64 s : rng.s) w.u64v(s);
  w.i64v(rng.have_gauss ? 1 : 0);
  w.f64v(rng.cached_gauss);
}

RngState read_rng(TextReader& r) {
  r.expect("rng");
  RngState rng;
  for (u64& s : rng.s) s = r.read_u64();
  rng.have_gauss = r.read_i64() != 0;
  rng.cached_gauss = r.read_f64();
  return rng;
}

void write_f64s(TextWriter& w, const char* name,
                const std::vector<f64>& v) {
  w.key(name);
  w.size(v.size());
  for (const f64 x : v) w.f64v(x);
}

std::vector<f64> read_f64s(TextReader& r, const char* name) {
  r.expect(name);
  const u64 n = r.read_u64();
  std::vector<f64> v;
  r.read_f64s(v, static_cast<std::size_t>(n));
  return v;
}

/// The largest n with n * n <= m.
i64 isqrt(i64 m) {
  auto n = static_cast<i64>(std::sqrt(static_cast<f64>(m)));
  while (n * n > m) --n;
  while ((n + 1) * (n + 1) <= m) ++n;
  return n;
}

/// The n of a packed block of `entries` = n(n+1)/2 entries.
i64 packed_side(std::size_t entries) {
  const auto m = static_cast<i64>(entries);
  const i64 n = (isqrt(8 * m + 1) - 1) / 2;
  FEKF_CHECK(kernels::packed_size(n) == m,
             "KalmanState block of " + std::to_string(m) +
                 " entries is not a packed triangle");
  return n;
}

/// P blocks are written in full, n x n row-major, so the file format does
/// not depend on the in-memory packed layout.
void write_kalman(TextWriter& w, const optim::KalmanState& k) {
  w.key("lambda");
  w.f64v(k.lambda);
  w.key("blocks");
  w.size(k.p.size());
  for (const std::vector<f64>& block : k.p) {
    const i64 n = packed_side(block.size());
    w.key("block");
    w.size(static_cast<std::size_t>(n * n));
    for (i64 i = 0; i < n; ++i) {
      for (i64 j = 0; j < n; ++j) {
        const i64 lo = std::min(i, j), hi = std::max(i, j);
        w.f64v(block[static_cast<std::size_t>(kernels::packed_row(lo, n) +
                                              (hi - lo))]);
      }
    }
  }
}

/// A filter state the optimizer could not run from is malformed, not
/// merely unusual: lambda must lie in (0, 1] (KalmanConfig::lambda0's
/// range, which lambda <- lambda*nu + 1 - nu preserves), and every P block
/// must be square, finite and exactly symmetric (P[i,j] and P[j,i] the
/// same bits: the optimizer keeps only the upper triangle). Blocks are
/// folded into the packed layout.
optim::KalmanState read_kalman(TextReader& r) {
  optim::KalmanState k;
  r.expect("lambda");
  k.lambda = r.read_f64();
  if (!(std::isfinite(k.lambda) && k.lambda > 0.0 && k.lambda <= 1.0)) {
    r.malformed("kalman lambda must be in (0, 1], got " +
                std::to_string(k.lambda));
  }
  r.expect("blocks");
  const u64 nblocks = r.read_u64();
  k.p.reserve(static_cast<std::size_t>(nblocks));
  for (u64 b = 0; b < nblocks; ++b) {
    const std::vector<f64> block = read_f64s(r, "block");
    const auto bad = std::find_if_not(
        block.begin(), block.end(), [](f64 v) { return std::isfinite(v); });
    if (bad != block.end()) {
      r.malformed("kalman P block " + std::to_string(b) + " entry " +
                  std::to_string(bad - block.begin()) + " is " +
                  std::to_string(*bad) + ", must be finite");
    }
    const i64 n = isqrt(static_cast<i64>(block.size()));
    if (n * n != static_cast<i64>(block.size())) {
      r.malformed("kalman P block " + std::to_string(b) + " has " +
                  std::to_string(block.size()) +
                  " entries, not a square n x n block");
    }
    std::vector<f64> packed(static_cast<std::size_t>(kernels::packed_size(n)));
    for (i64 i = 0; i < n; ++i) {
      for (i64 j = i; j < n; ++j) {
        const f64 upper = block[static_cast<std::size_t>(i * n + j)];
        const f64 lower = block[static_cast<std::size_t>(j * n + i)];
        if (std::bit_cast<u64>(upper) != std::bit_cast<u64>(lower)) {
          r.malformed("kalman P block " + std::to_string(b) +
                      " is not symmetric: P(" + std::to_string(i) + "," +
                      std::to_string(j) + ") = " + std::to_string(upper) +
                      " but P(" + std::to_string(j) + "," +
                      std::to_string(i) + ") = " + std::to_string(lower));
        }
        packed[static_cast<std::size_t>(kernels::packed_row(i, n) +
                                        (j - i))] = upper;
      }
    }
    k.p.push_back(std::move(packed));
  }
  return k;
}

void write_metrics(TextWriter& w, const Metrics& m) {
  w.f64v(m.energy_rmse);
  w.f64v(m.energy_rmse_per_atom);
  w.f64v(m.force_rmse);
}

Metrics read_metrics(TextReader& r) {
  Metrics m;
  m.energy_rmse = r.read_f64();
  m.energy_rmse_per_atom = r.read_f64();
  m.force_rmse = r.read_f64();
  return m;
}

const char* optimizer_kind_name(OptimizerCheckpoint::Kind kind) {
  switch (kind) {
    case OptimizerCheckpoint::Kind::kNone:
      return "none";
    case OptimizerCheckpoint::Kind::kKalman:
      return "kalman";
    case OptimizerCheckpoint::Kind::kNaiveEkf:
      return "naive_ekf";
    case OptimizerCheckpoint::Kind::kAdam:
      return "adam";
  }
  return "none";
}

}  // namespace

void save_checkpoint(const TrainingCheckpoint& ckpt,
                     const deepmd::DeepmdModel& model,
                     const std::string& path) {
  obs::ScopedSpan span("checkpoint.save", "checkpoint");
  span.arg("step", static_cast<f64>(ckpt.steps));
  TextWriter w;
  // P blocks dominate; reserve roughly one 22-char hex float per entry
  // (blocks are written in full, about twice their packed entries).
  std::size_t p_entries = ckpt.optimizer.kalman.p.size();
  for (const auto& b : ckpt.optimizer.kalman.p) p_entries += 2 * b.size();
  for (const auto& rep : ckpt.optimizer.replicas) {
    for (const auto& b : rep.p) p_entries += 2 * b.size();
  }
  w.reserve((p_entries + ckpt.weights.size()) * 24 + (1u << 16));

  w.key("section");
  w.token("counters");
  w.key("epoch");
  w.i64v(ckpt.epoch);
  w.key("steps");
  w.i64v(ckpt.steps);

  w.key("section");
  w.token("model");
  w.end_line();
  write_model_text(model, w);

  w.key("section");
  w.token("layout");
  w.key("layout");
  w.size(ckpt.layout.size());
  for (const auto& [name, size] : ckpt.layout) {
    w.key("leaf");
    w.bytes(name);
    w.i64v(size);
  }

  w.key("section");
  w.token("weights");
  write_f64s(w, "weights", ckpt.weights);

  w.key("section");
  w.token("optimizer");
  w.key("kind");
  w.token(optimizer_kind_name(ckpt.optimizer.kind));
  switch (ckpt.optimizer.kind) {
    case OptimizerCheckpoint::Kind::kNone:
      break;
    case OptimizerCheckpoint::Kind::kKalman:
      write_kalman(w, ckpt.optimizer.kalman);
      break;
    case OptimizerCheckpoint::Kind::kNaiveEkf:
      w.key("replicas");
      w.size(ckpt.optimizer.replicas.size());
      for (const optim::KalmanState& rep : ckpt.optimizer.replicas) {
        write_kalman(w, rep);
      }
      break;
    case OptimizerCheckpoint::Kind::kAdam:
      w.key("t");
      w.i64v(ckpt.optimizer.adam.t);
      write_f64s(w, "m", ckpt.optimizer.adam.m);
      write_f64s(w, "v", ckpt.optimizer.adam.v);
      break;
  }

  w.key("section");
  w.token("sampler");
  w.key("order");
  w.size(ckpt.sampler.order.size());
  for (const i64 i : ckpt.sampler.order) w.i64v(i);
  w.key("cursor");
  w.i64v(ckpt.sampler.cursor);
  write_rng(w, ckpt.sampler.rng);

  w.key("section");
  w.token("group_rng");
  w.key("present");
  w.i64v(ckpt.has_group_rng ? 1 : 0);
  if (ckpt.has_group_rng) write_rng(w, ckpt.group_rng);

  w.key("section");
  w.token("history");
  w.key("history");
  w.size(ckpt.history.size());
  for (const EpochRecord& rec : ckpt.history) {
    w.key("epoch");
    w.i64v(rec.epoch);
    write_metrics(w, rec.train);
    write_metrics(w, rec.test);
    w.f64v(rec.cumulative_seconds);
  }

  w.key("section");
  w.token("faults");
  w.key("faults");
  w.size(ckpt.faults.events.size());
  for (const FaultEvent& e : ckpt.faults.events) {
    w.key("event");
    w.i64v(e.step);
    w.bytes(e.kind);
    w.bytes(e.action);
    w.bytes(e.detail);
  }

  w.key("section");
  w.token("membership");
  w.key("present");
  w.i64v(ckpt.membership.present ? 1 : 0);
  if (ckpt.membership.present) {
    w.key("next_id");
    w.i64v(ckpt.membership.next_id);
    w.key("ranks");
    w.size(ckpt.membership.ranks.size());
    for (const MembershipCheckpoint::Rank& rank : ckpt.membership.ranks) {
      w.key("rank");
      w.i64v(rank.id);
      w.i64v(rank.alive ? 1 : 0);
      w.i64v(rank.silent ? 1 : 0);
      w.f64v(rank.slowdown);
      w.i64v(rank.missed);
    }
  }

  w.key("end");
  w.end_line();

  write_checksummed_file(path, kMagic, w.str());
}

LoadedCheckpoint load_checkpoint(const std::string& path) {
  obs::ScopedSpan span("checkpoint.load", "checkpoint");
  const std::string body = read_checksummed_file(path, kMagic);
  TextReader r(body, path, /*first_line=*/2);  // after the header line
  TrainingCheckpoint ckpt;

  r.expect("section");
  r.expect("counters");
  r.expect("epoch");
  ckpt.epoch = r.read_i64();
  if (ckpt.epoch < 1) r.malformed("epoch must be >= 1");
  r.expect("steps");
  ckpt.steps = r.read_i64();
  if (ckpt.steps < 0) r.malformed("steps must be >= 0");

  r.expect("section");
  r.expect("model");
  deepmd::DeepmdModel model = deepmd::read_model_text(r);

  r.expect("section");
  r.expect("layout");
  r.expect("layout");
  const u64 nleaves = r.read_u64();
  ckpt.layout.reserve(static_cast<std::size_t>(nleaves));
  i64 layout_total = 0;
  for (u64 i = 0; i < nleaves; ++i) {
    r.expect("leaf");
    std::string name = r.read_bytes();
    const i64 size = r.read_i64();
    if (size <= 0) r.malformed("leaf '" + name + "' has non-positive size");
    layout_total += size;
    ckpt.layout.emplace_back(std::move(name), size);
  }

  r.expect("section");
  r.expect("weights");
  ckpt.weights = read_f64s(r, "weights");
  if (static_cast<i64>(ckpt.weights.size()) != layout_total) {
    r.malformed("weight vector has " + std::to_string(ckpt.weights.size()) +
                " entries, layout sums to " + std::to_string(layout_total));
  }

  r.expect("section");
  r.expect("optimizer");
  r.expect("kind");
  const std::string_view kind = r.token();
  if (kind == "none") {
    ckpt.optimizer.kind = OptimizerCheckpoint::Kind::kNone;
  } else if (kind == "kalman") {
    ckpt.optimizer.kind = OptimizerCheckpoint::Kind::kKalman;
    ckpt.optimizer.kalman = read_kalman(r);
  } else if (kind == "naive_ekf") {
    ckpt.optimizer.kind = OptimizerCheckpoint::Kind::kNaiveEkf;
    r.expect("replicas");
    const u64 nreps = r.read_u64();
    for (u64 i = 0; i < nreps; ++i) {
      ckpt.optimizer.replicas.push_back(read_kalman(r));
    }
  } else if (kind == "adam") {
    ckpt.optimizer.kind = OptimizerCheckpoint::Kind::kAdam;
    r.expect("t");
    ckpt.optimizer.adam.t = r.read_i64();
    ckpt.optimizer.adam.m = read_f64s(r, "m");
    ckpt.optimizer.adam.v = read_f64s(r, "v");
  } else {
    r.malformed("unknown optimizer kind '" + std::string(kind) + "'");
  }

  r.expect("section");
  r.expect("sampler");
  r.expect("order");
  const u64 norder = r.read_u64();
  ckpt.sampler.order.resize(static_cast<std::size_t>(norder));
  for (i64& i : ckpt.sampler.order) i = r.read_i64();
  r.expect("cursor");
  ckpt.sampler.cursor = r.read_i64();
  ckpt.sampler.rng = read_rng(r);

  r.expect("section");
  r.expect("group_rng");
  r.expect("present");
  ckpt.has_group_rng = r.read_i64() != 0;
  if (ckpt.has_group_rng) ckpt.group_rng = read_rng(r);

  r.expect("section");
  r.expect("history");
  r.expect("history");
  const u64 nrecords = r.read_u64();
  for (u64 i = 0; i < nrecords; ++i) {
    EpochRecord rec;
    r.expect("epoch");
    rec.epoch = r.read_i64();
    rec.train = read_metrics(r);
    rec.test = read_metrics(r);
    rec.cumulative_seconds = r.read_f64();
    ckpt.history.push_back(rec);
  }

  r.expect("section");
  r.expect("faults");
  r.expect("faults");
  const u64 nevents = r.read_u64();
  for (u64 i = 0; i < nevents; ++i) {
    FaultEvent e;
    r.expect("event");
    e.step = r.read_i64();
    e.kind = r.read_bytes();
    e.action = r.read_bytes();
    e.detail = r.read_bytes();
    ckpt.faults.events.push_back(std::move(e));
  }

  r.expect("section");
  r.expect("membership");
  r.expect("present");
  ckpt.membership.present = r.read_i64() != 0;
  if (ckpt.membership.present) {
    r.expect("next_id");
    ckpt.membership.next_id = r.read_i64();
    r.expect("ranks");
    const u64 nranks = r.read_u64();
    for (u64 i = 0; i < nranks; ++i) {
      MembershipCheckpoint::Rank rank;
      r.expect("rank");
      rank.id = r.read_i64();
      rank.alive = r.read_i64() != 0;
      rank.silent = r.read_i64() != 0;
      rank.slowdown = r.read_f64();
      if (!(rank.slowdown > 0.0)) r.malformed("rank slowdown must be > 0");
      rank.missed = r.read_i64();
      ckpt.membership.ranks.push_back(rank);
    }
  }

  r.expect("end");

  return LoadedCheckpoint{std::move(ckpt), std::move(model)};
}

}  // namespace fekf::train
