// Wall-clock stopwatch used by the training loops and benchmark harnesses.
// Per-phase time is read from trace spans instead (obs/trace.hpp).
#pragma once

#include <chrono>

#include "core/common.hpp"

namespace fekf {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or last reset().
  f64 seconds() const {
    return std::chrono::duration<f64>(clock::now() - start_).count();
  }

  f64 milliseconds() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace fekf
