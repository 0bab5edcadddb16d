// Deterministic fault injection + the fault log carried in training
// results.
//
// The resilience contract (DESIGN.md §10) is only credible if every
// recovery path is exercised by tests, not just claimed. FaultInjector is
// the single switchboard: a spec string — from the FEKF_FAULT_SPEC
// environment variable or configure() — arms faults that the instrumented
// sites (trainer gradient assembly, checkpoint writer, the elastic
// virtual cluster) poll at deterministic points.
//
// Spec grammar (comma-separated arms; qualifiers attach to the arm on
// their left):
//
//   spec  := arm ("," (arm | qual))*
//   arm   := kind | kind "@" qual
//   qual  := key "=" value
//   kind  := nan_grad | corrupt_ckpt | rank_fail | rank_join | straggler
//   key   := step | factor | rank
//
// so "rank_fail@step=30,rank_join@step=60" arms two faults and
// "straggler@step=2,factor=2.5" arms one fault with two qualifiers. An arm
// (`step=N`, or no qualifier = first opportunity) fires on the first
// `repeat` polls whose step has reached N; `step=30x3` sets repeat = 3, so
// the arm fires on three consecutive polls. Every arm is deterministic, so
// injected runs are exactly reproducible — the recovery-determinism tests
// rely on it. `factor=` (straggler slowdown) and `rank=` (target rank id)
// are payload qualifiers the poll site reads back via FiredFault.
//
// Fault kinds and their poll sites:
//
//   nan_grad@step=17     poison the measurement gradient at optimizer
//                        step 17 (trainer sentinels must roll back)
//   corrupt_ckpt         flip a byte in the next checkpoint written
//                        (the loader's checksum must reject it)
//   rank_fail@step=30    silence a virtual-cluster rank at step 30; the
//                        heartbeat failure detector evicts it and the
//                        survivors re-shard (dist/cluster.hpp)
//   rank_join@step=60    a new rank joins at step 60 and receives the
//                        weight + covariance catch-up transfer
//   straggler@step=9     slow one rank down (factor=F, default 4x); the
//                        cluster waits for it, at most 3x the nominal
//                        compute max (dist::kStragglerWaitFactor)
//
// Every configure() resets all fired counts, so a spec replays
// identically run to run. Malformed specs throw a single-line Error naming
// the offending token (tests/test_fault.cpp).
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace fekf {

/// Canonical fault-kind names (the registry keys). configure() rejects
/// anything else.
namespace faults {
inline constexpr const char* kNanGrad = "nan_grad";
inline constexpr const char* kCorruptCkpt = "corrupt_ckpt";
inline constexpr const char* kRankFail = "rank_fail";
inline constexpr const char* kRankJoin = "rank_join";
inline constexpr const char* kStraggler = "straggler";
}  // namespace faults

/// All kind names configure() accepts, for diagnostics and tests.
std::vector<std::string_view> fault_kind_names();

/// One recovery (or injection) event, recorded by trainers and the virtual
/// cluster in the order it happened.
struct FaultEvent {
  i64 step = 0;        ///< optimizer / training step the event hit
  std::string kind;    ///< signal: "nan_grad", "nonfinite_loss",
                       ///< "rank_fail", "rank_evict", "rank_join",
                       ///< "straggler", ...
  std::string action;  ///< recovery taken: "rollback_skip_batch",
                       ///< "reshard", "catchup", "injected", ...
  std::string detail;  ///< free text (exception message, signal values)
};

/// Observability hook fired after every FaultLog::record — the flight
/// recorder registers one so divergence rollbacks, injected faults, and
/// cluster membership events each flush a post-mortem trace. One relaxed
/// atomic load per record when no hook is installed. The hook runs on the
/// recording thread and must not throw.
using FaultHook = void (*)(const FaultEvent& event);
void set_fault_hook(FaultHook hook);

namespace detail {
extern std::atomic<FaultHook> g_fault_hook;
inline void notify_fault(const FaultEvent& event) {
  if (FaultHook hook = g_fault_hook.load(std::memory_order_relaxed)) {
    hook(event);
  }
}
}  // namespace detail

struct FaultLog {
  std::vector<FaultEvent> events;

  void record(i64 step, std::string kind, std::string action,
              std::string detail = {}) {
    events.push_back({step, std::move(kind), std::move(action),
                      std::move(detail)});
    ::fekf::detail::notify_fault(events.back());
  }
  i64 count(std::string_view kind) const {
    i64 n = 0;
    for (const FaultEvent& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }
  bool empty() const { return events.empty(); }
};

/// One parsed arm of the fault spec.
struct FaultArm {
  std::string kind;
  i64 at_step = -1;   ///< -1: first opportunity
  i64 repeat = 1;     ///< consecutive firing polls
  f64 factor = -1.0;  ///< straggler slowdown; site default when < 0
  i64 rank = -1;      ///< target rank id; site default when < 0
};

/// What a poll site learns when an arm fires (the arm's payload
/// qualifiers, resolved so the site can honor rank= / factor=).
struct FiredFault {
  f64 factor = -1.0;  ///< straggler slowdown; < 0 = site default
  i64 rank = -1;      ///< target rank id; < 0 = site default
};

class FaultInjector {
 public:
  /// Process-wide injector, armed from FEKF_FAULT_SPEC on first use.
  static FaultInjector& instance();

  /// (Re-)arm from a spec string; clears previous arms and fired counts.
  /// Throws Error on a malformed spec, naming the offending token.
  void configure(const std::string& spec);
  /// Re-arm from FEKF_FAULT_SPEC (empty spec when the variable is unset).
  /// Test fixtures use this to restore the ambient environment arms.
  void configure_from_env();
  /// Disarm everything.
  void clear();

  /// Poll point: true exactly `repeat` times, on the first polls whose
  /// `step` has reached the trigger step (always eligible for step-less
  /// arms). Thread-safe.
  bool fire(std::string_view kind, i64 step);

  /// fire(), plus the arm's payload qualifiers when it fires.
  std::optional<FiredFault> fire_detail(std::string_view kind, i64 step);

  /// True if `kind` is armed and can still fire.
  bool armed(std::string_view kind) const;

  /// Parsed arms, in spec order (diagnostics and tests).
  std::vector<FaultArm> arms() const;

  /// Flip one byte in the middle of `path` (the corrupt_ckpt payload).
  /// Throws Error for a missing or empty file — never indexes past the
  /// end, even for a one-byte file.
  static void corrupt_file(const std::string& path);

 private:
  FaultInjector();

  struct ArmState {
    FaultArm arm;
    i64 fired = 0;
  };

  ArmState* find(std::string_view kind);
  const ArmState* find(std::string_view kind) const;

  mutable std::mutex mutex_;
  std::vector<ArmState> arms_;
};

}  // namespace fekf
