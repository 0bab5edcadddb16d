#include "core/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fekf {

Cli& Cli::flag(const std::string& name, const std::string& default_value,
               const std::string& help) {
  FEKF_CHECK(!flags_.count(name), "duplicate flag --" + name);
  flags_[name] = Flag{default_value, help, std::nullopt};
  order_.push_back(name);
  return *this;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    FEKF_CHECK(arg.rfind("--", 0) == 0, "expected --flag, got '" + arg + "'");
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      auto it = flags_.find(arg);
      FEKF_CHECK(it != flags_.end(), "unknown flag --" + arg);
      const bool is_bool = it->second.default_value == "true" ||
                           it->second.default_value == "false";
      if (is_bool && (i + 1 >= argc ||
                      std::string(argv[i + 1]).rfind("--", 0) == 0)) {
        value = "true";  // bare boolean switch
      } else {
        FEKF_CHECK(i + 1 < argc, "missing value for --" + arg);
        value = argv[++i];
      }
    }
    auto it = flags_.find(arg);
    FEKF_CHECK(it != flags_.end(), "unknown flag --" + arg);
    it->second.value = value;
  }
  return true;
}

const Cli::Flag& Cli::find(const std::string& name) const {
  auto it = flags_.find(name);
  FEKF_CHECK(it != flags_.end(), "flag --" + name + " was never registered");
  return it->second;
}

std::string Cli::get(const std::string& name) const {
  const Flag& f = find(name);
  return f.value.value_or(f.default_value);
}

// Both numeric getters reject an empty value (strto* would parse it as
// 0) and an out-of-range one (which strto* saturates to LLONG_MAX or
// ±HUGE_VAL, flagging ERANGE); get_double also rejects nan and inf.
i64 Cli::get_int(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const long long r = std::strtoll(v.c_str(), &end, 10);
  FEKF_CHECK(!v.empty() && end && *end == '\0' && errno != ERANGE,
             "--" + name + ": '" + v + "' is not an integer");
  return static_cast<i64>(r);
}

f64 Cli::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const f64 r = std::strtod(v.c_str(), &end);
  FEKF_CHECK(!v.empty() && end && *end == '\0' && errno != ERANGE &&
                 std::isfinite(r),
             "--" + name + ": '" + v + "' is not a number");
  return r;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  fail("--" + name + ": '" + v + "' is not a boolean");
}

bool Cli::provided(const std::string& name) const {
  return find(name).value.has_value();
}

std::string Cli::usage() const {
  std::string out = program_ + " — " + description_ + "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    out += "  --" + name + " (default: " + f.default_value + ")\n      " +
           f.help + "\n";
  }
  return out;
}

}  // namespace fekf
