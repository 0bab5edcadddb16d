// The fused EKF step and the arena allocator, head to head (DESIGN.md
// §12). Each is measured in isolation so a regression is attributable to
// one site, not a whole training step:
//
//   EKF step      one-launch ekf_apply_gain (the pending P write and the
//                 gain in one sweep) vs the legacy symv / dot /
//                 p_update_fused / axpy sequence
//   arena         the default model's energy + force prediction with
//                 temporaries drawn from the Workspace vs operator new
//   serving       one predict_batch over 16 cells with forces (32-atom
//                 FCC cells for Cu/Al), on a thread of its own like the
//                 BatchingEvaluator worker, inside an ArenaScope vs on
//                 the heap, with that thread's minor page faults per
//                 batch (RUSAGE_THREAD; pool helpers' are not counted).
//                 Report-only: no budget reads it
//
// The EKF comparison asserts (FEKF_CHECK) the fused step's launch budget
// and its bit-identical state, and the arena its steady state, so the
// binary doubles as a CI gate; `--json FILE` emits the numbers
// ci/check_budgets.py compares against ci/budgets.json.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "md/lattice.hpp"
#include "optim/kalman.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/kernel_counter.hpp"
#include "tensor/kernels.hpp"
#include "tensor/workspace.hpp"

using namespace fekf;
using namespace fekf::bench;

namespace {

f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  f64 fused_s = 0.0;    ///< seconds per repetition
  f64 unfused_s = 0.0;
  i64 fused_launches = 0;
  i64 unfused_launches = 0;

  f64 speedup() const { return unfused_s > 0.0 ? unfused_s / fused_s : 0.0; }
};

/// Time `fn` over `reps` repetitions and count one repetition's launches.
template <typename Fn>
void measure(Fn&& fn, i64 reps, f64* seconds, i64* launches) {
  fn();  // warm-up (excluded)
  {
    KernelCountScope scope;
    fn();
    *launches = scope.count();
  }
  const f64 t0 = now_s();
  for (i64 r = 0; r < reps; ++r) fn();
  *seconds = (now_s() - t0) / static_cast<f64>(reps);
}

i64 thread_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<i64>(usage.ru_minflt);
}

/// One arm of the serving row: seconds and minor faults per batch.
struct ServingArm {
  f64 s_per_batch = 0.0;
  f64 faults_per_batch = 0.0;
};

/// The serving row's batch: 16 jittered 2x2x2 FCC cells (32 atoms) for
/// Cu/Al, else the fixture's first training snapshots.
std::vector<train::EnvPtr> serving_envs(const Fixture& f) {
  constexpr i64 kBatch = 16;
  const f64 lattice_a = f.system == "Cu" ? 3.615 : f.system == "Al" ? 4.05 : 0.0;
  std::vector<train::EnvPtr> envs;
  Rng rng(7);
  for (i64 i = 0; i < kBatch; ++i) {
    if (lattice_a == 0.0) {
      envs.push_back(f.train_envs[static_cast<std::size_t>(i) %
                                  f.train_envs.size()]);
      continue;
    }
    const md::Structure st = md::make_fcc(lattice_a, 2, 2, 2);
    md::Snapshot snap;
    snap.cell = st.cell;
    snap.types = st.types;
    snap.positions = st.positions;
    for (md::Vec3& p : snap.positions) {  // thermal-scale jitter
      p.x += 0.02 * lattice_a * rng.gaussian();
      p.y += 0.02 * lattice_a * rng.gaussian();
      p.z += 0.02 * lattice_a * rng.gaussian();
    }
    envs.push_back(f.model->prepare(snap));
  }
  return envs;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_fusion",
          "fused vs legacy EKF step, plus the arena allocator");
  add_common_flags(cli);
  cli.flag("system", "Cu", "catalog system for the arena comparison")
      .flag("ekf-n", "256", "EKF micro: covariance block size")
      .flag("reps", "20", "timed repetitions per measurement")
      .flag("json", "", "also write a machine-readable summary to this file");
  if (!cli.parse(argc, argv)) return 0;

  const i64 reps = cli.get_int("reps");
  Table table({"comparison", "fused s/rep", "unfused s/rep", "speedup",
               "fused launches", "unfused launches"});

  // ---- fused EKF step per kernel backend ------------------------------
  // Under FEKF_KERNEL_BACKEND=scalar and auto (DESIGN.md §13; auto is the
  // default). Every gain body either path can select keeps the reference
  // chains, so the launch budget and the bit-identity assertions must hold
  // under both, and the two rows show what the auto-selected rung buys on
  // the EKF update.
  std::vector<std::pair<std::string, Result>> ekf_backends;
  {
    const i64 n = cli.get_int("ekf-n");
    const dispatch::Backend prior = dispatch::backend();
    for (dispatch::Backend backend :
         {dispatch::Backend::kScalar, dispatch::Backend::kAuto}) {
      dispatch::set_backend(backend);
      std::vector<optim::BlockSpec> blocks{{0, n, "blk"}};
      optim::KalmanConfig fused_cfg;
      optim::KalmanConfig legacy_cfg;
      legacy_cfg.level = optim::EkfLevel::kOpt3;
      optim::KalmanOptimizer fused_opt(blocks, fused_cfg);
      optim::KalmanOptimizer legacy_opt(blocks, legacy_cfg);
      Rng rng(13);
      std::vector<f64> g(static_cast<std::size_t>(n));
      for (f64& v : g) v = rng.gaussian() * 0.05;
      std::vector<f64> wf(static_cast<std::size_t>(n), 0.0);
      std::vector<f64> wl(static_cast<std::size_t>(n), 0.0);
      Result r;
      measure([&] { fused_opt.update(g, 0.1, wf); }, reps, &r.fused_s,
              &r.fused_launches);
      measure([&] { legacy_opt.update(g, 0.1, wl); }, reps, &r.unfused_s,
              &r.unfused_launches);
      const char* name = dispatch::backend_name(backend);
      FEKF_CHECK(r.fused_launches == 1,
                 "fused EKF step issued " + std::to_string(r.fused_launches) +
                     " launches per block under backend " + name +
                     ", budget is 1");
      FEKF_CHECK(r.unfused_launches == 4,
                 "legacy EKF step issued " +
                     std::to_string(r.unfused_launches) +
                     " launches per block under backend " + name +
                     ", expected 4");
      // Both optimizers saw the identical update sequence: state must match
      // bit for bit (the fused sweep replays the legacy accumulation order;
      // state() writes the fused optimizer's pending step first).
      FEKF_CHECK(wf == wl, std::string("fused EKF weights diverged from "
                                       "legacy under backend ") +
                               name);
      FEKF_CHECK(fused_opt.state().p == legacy_opt.state().p,
                 std::string("fused EKF covariance diverged from legacy "
                             "under backend ") +
                     name);
      table.add_row({std::string("EKF block update [") + name + "]",
                     fmt("%.6f", r.fused_s), fmt("%.6f", r.unfused_s),
                     fmt("%.2fx", r.speedup()),
                     std::to_string(r.fused_launches),
                     std::to_string(r.unfused_launches)});
      ekf_backends.emplace_back(name, r);
    }
    dispatch::set_backend(prior);
  }

  // ---- arena vs heap --------------------------------------------------
  Result arena;
  i64 arena_allocs = 0, arena_peak_bytes = 0, arena_retired = 0;
  i64 arena_reserved_growth = 0;
  ServingArm serve_arena, serve_heap;
  i64 serve_natoms = 0;
  const bool arena_available = Workspace::enabled();
  if (arena_available) {
    Fixture f = make_fixture(cli.get("system"), cli);
    const train::EnvPtr& env = f.train_envs.front();
    auto step = [&] { (void)f.model->predict(env, /*with_forces=*/true); };
    {
      ArenaScope warm;  // populate slabs before the steady-state window
      step();
    }
    Workspace::reset_stats();
    const i64 reserved_before = Workspace::stats().reserved_bytes;
    measure(
        [&] {
          ArenaScope scope;
          step();
        },
        reps, &arena.fused_s, &arena.fused_launches);
    const WorkspaceStats st = Workspace::stats();
    arena_allocs = st.allocs;
    arena_peak_bytes = st.peak_scope_bytes;
    arena_retired = st.retired_slabs;
    arena_reserved_growth = st.reserved_bytes - reserved_before;
    Workspace::set_enabled(false);
    measure(step, reps, &arena.unfused_s, &arena.unfused_launches);
    Workspace::set_enabled(true);
    // Allocation budget: the arena must actually serve the step and stay in
    // steady state — no slab growth or retirement once warmed up.
    FEKF_CHECK(arena_allocs > 0, "arena served no allocations");
    FEKF_CHECK(arena_retired == 0,
               "arena retired " + std::to_string(arena_retired) +
                   " slab(s): a tensor escaped its step scope");
    FEKF_CHECK(arena_reserved_growth == 0,
               "arena grew by " + std::to_string(arena_reserved_growth) +
                   " bytes after warm-up: steady state violated");
    table.add_row({"model step arena/heap", fmt("%.6f", arena.fused_s),
                   fmt("%.6f", arena.unfused_s),
                   fmt("%.2fx", arena.speedup()),
                   std::to_string(arena.fused_launches),
                   std::to_string(arena.unfused_launches)});

    // Serving batch, arms interleaved per repetition so drift hits both.
    const std::vector<train::EnvPtr> batch_envs = serving_envs(f);
    std::thread([&] {
      auto batch = [&](bool armed, ServingArm* arm) {
        const i64 faults0 = thread_minor_faults();
        const f64 t0 = now_s();
        if (armed) {
          ArenaScope scope;
          (void)f.model->predict_batch(batch_envs, /*with_forces=*/true);
        } else {
          (void)f.model->predict_batch(batch_envs, /*with_forces=*/true);
        }
        arm->s_per_batch += now_s() - t0;
        arm->faults_per_batch +=
            static_cast<f64>(thread_minor_faults() - faults0);
      };
      ServingArm warm;
      batch(true, &warm);
      batch(false, &warm);
      for (i64 r = 0; r < reps; ++r) {
        batch(true, &serve_arena);
        batch(false, &serve_heap);
      }
    }).join();
    for (ServingArm* arm : {&serve_arena, &serve_heap}) {
      arm->s_per_batch /= static_cast<f64>(reps);
      arm->faults_per_batch /= static_cast<f64>(reps);
    }
    serve_natoms = batch_envs.front()->natoms;
    table.add_row({"serving batch 16 arena/heap",
                   fmt("%.6f", serve_arena.s_per_batch),
                   fmt("%.6f", serve_heap.s_per_batch),
                   fmt("%.2fx", serve_heap.s_per_batch /
                                    serve_arena.s_per_batch),
                   "-", "-"});
  }

  std::printf("Fused vs unfused (seconds per repetition, %lld reps; "
              "launches per repetition):\n",
              static_cast<long long>(reps));
  table.print();
  if (arena_available) {
    std::printf("\narena steady state: %lld allocs/step served, peak scope "
                "%lld KiB, 0 retired slabs, 0 growth\n",
                static_cast<long long>(arena_allocs / (reps + 2)),
                static_cast<long long>(arena_peak_bytes / 1024));
    std::printf("serving batch (16 x %lld atoms, forces, own thread): "
                "%.1f minor faults/batch in the arena, %.1f on the heap\n",
                static_cast<long long>(serve_natoms),
                serve_arena.faults_per_batch, serve_heap.faults_per_batch);
  } else {
    std::printf("\narena disabled (FEKF_ARENA=0): arena/heap comparison "
                "skipped\n");
  }
  std::printf("\nFused EKF state verified bit-identical to the legacy "
              "sequence; launch budget asserted (1-launch EKF step).\n");

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    auto entry = [](const char* name, const Result& r) {
      std::string s = "    {\"name\": \"" + std::string(name) + "\", ";
      s += "\"fused_s\": " + fmt("%.6f", r.fused_s) + ", ";
      s += "\"unfused_s\": " + fmt("%.6f", r.unfused_s) + ", ";
      s += "\"speedup\": " + fmt("%.3f", r.speedup()) + ", ";
      s += "\"fused_launches\": " + std::to_string(r.fused_launches) + ", ";
      s += "\"unfused_launches\": " + std::to_string(r.unfused_launches) +
           "}";
      return s;
    };
    std::string json = "{\n  \"bench\": \"fusion\",\n";
    json += "  \"system\": \"" + cli.get("system") + "\",\n";
    json += "  \"reps\": " + std::to_string(reps) + ",\n";
    json += "  \"threads\": " + std::to_string(num_threads()) + ",\n";
    json += "  \"arena_enabled\": ";
    json += arena_available ? "true" : "false";
    json += ",\n  \"arena_allocs_per_step\": " +
            std::to_string(arena_available ? arena_allocs / (reps + 2) : 0) +
            ",\n";
    json += "  \"arena_peak_scope_bytes\": " +
            std::to_string(arena_peak_bytes) + ",\n";
    if (arena_available) {
      json += "  \"serving_arena_vs_heap\": {\"batch\": 16, \"natoms\": " +
              std::to_string(serve_natoms) + ", \"arena_s\": " +
              fmt("%.6f", serve_arena.s_per_batch) + ", \"heap_s\": " +
              fmt("%.6f", serve_heap.s_per_batch) +
              ", \"arena_minor_faults\": " +
              fmt("%.1f", serve_arena.faults_per_batch) +
              ", \"heap_minor_faults\": " +
              fmt("%.1f", serve_heap.faults_per_batch) + "},\n";
    }
    json += "  \"comparisons\": [\n";
    for (const auto& [backend, result] : ekf_backends) {
      if (backend != ekf_backends.front().first) json += ",\n";
      json += entry(("ekf_block_update_" + backend).c_str(), result);
    }
    if (arena_available) {
      json += ",\n" + entry("arena_vs_heap", arena);
    }
    json += "\n  ]\n}\n";
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    FEKF_CHECK(out != nullptr, "cannot open --json file " + json_path);
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("JSON summary written to %s\n", json_path.c_str());
  }
  return 0;
}
