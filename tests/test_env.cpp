// Centralized env-knob accessor tests (core/env.hpp): registry coverage,
// typed parsing with warn-and-fall-back, and the unknown-FEKF_* typo scan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/env.hpp"

namespace fekf::env {
namespace {

bool scan_contains(const std::string& name) {
  for (const std::string& hit : scan_unknown_for_test()) {
    if (hit == name) return true;
  }
  return false;
}

TEST(Env, EveryHistoricalKnobIsRegistered) {
  for (const char* name :
       {"FEKF_NUM_THREADS", "FEKF_KERNEL_BACKEND", "FEKF_ARENA",
        "FEKF_LOG_LEVEL", "FEKF_TRACE", "FEKF_TRACE_KERNELS", "FEKF_METRICS",
        "FEKF_FLIGHT", "FEKF_FAULT_SPEC",
        "FEKF_SERVE_MAX_BATCH", "FEKF_SERVE_MAX_WAIT_US",
        "FEKF_SERVE_WORKERS"}) {
    bool found = false;
    for (const Knob& knob : knobs()) {
      if (std::string(knob.name) == name) {
        found = true;
        EXPECT_NE(std::string(knob.summary), "") << name;
      }
    }
    EXPECT_TRUE(found) << name << " missing from env registry";
  }
}

TEST(Env, UnregisteredLookupThrows) {
  EXPECT_THROW(get("FEKF_NO_SUCH_KNOB"), Error);
}

TEST(Env, TypedGettersParseAndFallBack) {
  ::setenv("FEKF_SERVE_MAX_BATCH", "32", 1);
  EXPECT_EQ(get_i64("FEKF_SERVE_MAX_BATCH", 16), 32);
  ::setenv("FEKF_SERVE_MAX_BATCH", "32x", 1);  // trailing junk -> fallback
  EXPECT_EQ(get_i64("FEKF_SERVE_MAX_BATCH", 16), 16);
  ::unsetenv("FEKF_SERVE_MAX_BATCH");
  EXPECT_EQ(get_i64("FEKF_SERVE_MAX_BATCH", 16), 16);

  ::setenv("FEKF_SERVE_MAX_WAIT_US", "250.5", 1);
  EXPECT_EQ(get_f64("FEKF_SERVE_MAX_WAIT_US", 1.0), 250.5);
  ::setenv("FEKF_SERVE_MAX_WAIT_US", "soon", 1);
  EXPECT_EQ(get_f64("FEKF_SERVE_MAX_WAIT_US", 1.0), 1.0);
  ::unsetenv("FEKF_SERVE_MAX_WAIT_US");

  // Flag semantics match the historical FEKF_ARENA parsing: only the
  // exact strings 0/off/false disable.
  for (const char* off : {"0", "off", "false"}) {
    ::setenv("FEKF_ARENA", off, 1);
    EXPECT_FALSE(get_flag("FEKF_ARENA", true)) << off;
  }
  for (const char* on : {"1", "on", "OFF", "False", "yes", ""}) {
    ::setenv("FEKF_ARENA", on, 1);
    EXPECT_TRUE(get_flag("FEKF_ARENA", false)) << on;
  }
  ::unsetenv("FEKF_ARENA");
  EXPECT_TRUE(get_flag("FEKF_ARENA", true));
  EXPECT_FALSE(get_flag("FEKF_ARENA", false));
}

TEST(Env, UnknownScanFlagsTyposButNotHarnessVars) {
  ::setenv("FEKF_NUM_THREDS", "4", 1);    // the motivating typo
  ::setenv("FEKF_CI_SOMETHING", "x", 1);  // CI-harness namespace: ignored
  EXPECT_TRUE(scan_contains("FEKF_NUM_THREDS"));
  EXPECT_FALSE(scan_contains("FEKF_CI_SOMETHING"));
  EXPECT_FALSE(scan_contains("FEKF_NUM_THREADS"));
  ::unsetenv("FEKF_NUM_THREDS");
  ::unsetenv("FEKF_CI_SOMETHING");
  EXPECT_FALSE(scan_contains("FEKF_NUM_THREDS"));
}

}  // namespace
}  // namespace fekf::env
