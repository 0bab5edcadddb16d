#include "core/fault.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/env.hpp"

namespace fekf {

namespace detail {
std::atomic<FaultHook> g_fault_hook{nullptr};
}  // namespace detail

void set_fault_hook(FaultHook hook) {
  detail::g_fault_hook.store(hook, std::memory_order_relaxed);
}

namespace {
std::atomic<FailureHook> g_failure_hook{nullptr};
}  // namespace

void set_failure_hook(FailureHook hook) {
  g_failure_hook.store(hook, std::memory_order_relaxed);
}

void notify_failure(const char* what) noexcept {
  if (FailureHook hook = g_failure_hook.load(std::memory_order_relaxed)) {
    hook(what);
  }
}

namespace {

constexpr std::string_view kKnownKinds[] = {
    faults::kNanGrad, faults::kCorruptCkpt, faults::kRankFail,
    faults::kRankJoin, faults::kStraggler,
};

bool is_known_kind(std::string_view kind) {
  for (const std::string_view k : kKnownKinds) {
    if (k == kind) return true;
  }
  return false;
}

std::string known_kinds_list() {
  std::string out;
  for (const std::string_view k : kKnownKinds) {
    if (!out.empty()) out += '|';
    out += k;
  }
  return out;
}

[[noreturn]] void bad_token(const std::string& token, const std::string& why) {
  throw Error("fault spec: " + why + " in token '" + token + "'");
}

i64 parse_i64(const std::string& token, const char* text, char** endp) {
  const i64 v = static_cast<i64>(std::strtoll(text, endp, 10));
  if (*endp == text) bad_token(token, "expected a number");
  return v;
}

f64 parse_f64(const std::string& token, const char* text, char** endp) {
  const f64 v = std::strtod(text, endp);
  if (*endp == text) bad_token(token, "expected a number");
  return v;
}

/// Apply one "key=value" qualifier token to `arm`.
void apply_qualifier(FaultArm& arm, const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    bad_token(token, "expected 'key=value' qualifier");
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  char* endp = nullptr;
  if (key == "step") {
    arm.at_step = parse_i64(token, value.c_str(), &endp);
    if (arm.at_step < 0) bad_token(token, "step must be >= 0");
    if (*endp == 'x') {
      const char* rep = endp + 1;
      arm.repeat = parse_i64(token, rep, &endp);
      if (arm.repeat < 1) bad_token(token, "repeat count must be >= 1");
    }
    if (*endp != '\0') bad_token(token, "trailing characters after step");
  } else if (key == "factor") {
    arm.factor = parse_f64(token, value.c_str(), &endp);
    if (*endp != '\0') bad_token(token, "trailing characters after factor");
    if (!(arm.factor > 0.0) || !std::isfinite(arm.factor)) {
      bad_token(token, "factor must be finite and > 0");
    }
  } else if (key == "rank") {
    arm.rank = parse_i64(token, value.c_str(), &endp);
    if (*endp != '\0') bad_token(token, "trailing characters after rank");
    if (arm.rank < 0) bad_token(token, "rank must be >= 0");
  } else {
    bad_token(token, "unknown qualifier '" + key + "=' "
                     "(want step|factor|rank)");
  }
}

}  // namespace

std::vector<std::string_view> fault_kind_names() {
  return {std::begin(kKnownKinds), std::end(kKnownKinds)};
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() { configure_from_env(); }

void FaultInjector::configure_from_env() {
  const char* env = env::get("FEKF_FAULT_SPEC");
  configure(env != nullptr ? env : "");
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  arms_.clear();
}

void FaultInjector::configure(const std::string& spec) {
  // Parse into a local registry first so a malformed spec leaves the
  // injector unchanged.
  std::vector<ArmState> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string token = spec.substr(pos, comma - pos);
    const bool last = comma == spec.size();
    pos = comma + 1;
    if (token.empty()) {
      if (last && spec.empty()) break;  // the empty spec disarms everything
      bad_token(token.empty() ? "," : token,
                "empty token (trailing or doubled comma?)");
    }
    const std::size_t at = token.find('@');
    const bool is_qualifier =
        at == std::string::npos && token.find('=') != std::string::npos;
    if (is_qualifier) {
      // "factor=2.5" continues the arm on its left
      // ("straggler@step=2,factor=2.5").
      if (parsed.empty()) {
        bad_token(token, "qualifier with no fault kind before it");
      }
      apply_qualifier(parsed.back().arm, token);
    } else {
      FaultArm arm;
      arm.kind = at == std::string::npos ? token : token.substr(0, at);
      if (!is_known_kind(arm.kind)) {
        bad_token(token, "unknown fault kind '" + arm.kind + "' (want " +
                             known_kinds_list() + ")");
      }
      for (const ArmState& prev : parsed) {
        if (prev.arm.kind == arm.kind) {
          bad_token(token, "duplicate arm for kind '" + arm.kind + "'");
        }
      }
      if (at != std::string::npos) {
        apply_qualifier(arm, token.substr(at + 1));
      }
      parsed.push_back(ArmState{std::move(arm), 0});
    }
    if (last) break;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  arms_ = std::move(parsed);
}

FaultInjector::ArmState* FaultInjector::find(std::string_view kind) {
  for (ArmState& a : arms_) {
    if (a.arm.kind == kind) return &a;
  }
  return nullptr;
}

const FaultInjector::ArmState* FaultInjector::find(
    std::string_view kind) const {
  for (const ArmState& a : arms_) {
    if (a.arm.kind == kind) return &a;
  }
  return nullptr;
}

bool FaultInjector::fire(std::string_view kind, i64 step) {
  return fire_detail(kind, step).has_value();
}

std::optional<FiredFault> FaultInjector::fire_detail(std::string_view kind,
                                                     i64 step) {
  std::lock_guard<std::mutex> lock(mutex_);
  ArmState* a = find(kind);
  if (a == nullptr) return std::nullopt;
  if (a->arm.at_step >= 0 && step < a->arm.at_step) return std::nullopt;
  if (a->fired >= a->arm.repeat) return std::nullopt;
  ++a->fired;
  return FiredFault{a->arm.factor, a->arm.rank};
}

bool FaultInjector::armed(std::string_view kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ArmState* a = find(kind);
  return a != nullptr && a->fired < a->arm.repeat;
}

std::vector<FaultArm> FaultInjector::arms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultArm> out;
  out.reserve(arms_.size());
  for (const ArmState& a : arms_) out.push_back(a.arm);
  return out;
}

void FaultInjector::corrupt_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  FEKF_CHECK(f != nullptr,
             "cannot open '" + path + "' to corrupt it (missing file?)");
  bool seek_ok = std::fseek(f, 0, SEEK_END) == 0;
  const long size = seek_ok ? std::ftell(f) : -1L;
  if (size <= 0) {
    std::fclose(f);
    FEKF_CHECK(size == 0, "cannot size '" + path + "' to corrupt it");
    throw Error("cannot corrupt empty file '" + path + "'");
  }
  // size/2 is always a valid offset (0 for a one-byte file).
  const long target = size / 2;
  seek_ok = std::fseek(f, target, SEEK_SET) == 0;
  const int c = seek_ok ? std::fgetc(f) : EOF;
  if (c == EOF || std::fseek(f, target, SEEK_SET) != 0) {
    std::fclose(f);
    throw Error("cannot read '" + path + "' at byte " +
                std::to_string(target) + " to corrupt it");
  }
  std::fputc(c ^ 0x20, f);  // flip a bit, stay printable
  std::fclose(f);
}

}  // namespace fekf
