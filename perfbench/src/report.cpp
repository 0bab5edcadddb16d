#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

#include "bench.hpp"
#include "core/rng.hpp"
#include "md/lattice.hpp"

namespace fekf::perfbench {

f64 percentile(std::vector<f64> values, f64 p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const f64 rank = std::ceil(p * static_cast<f64>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max<f64>(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

f64 median(std::vector<f64> values) {
  return percentile(std::move(values), 0.5);
}

f64 mean(const std::vector<f64>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<f64>(values.size());
}

Tail highest_supported_tail(const std::vector<f64>& values) {
  const f64 n = static_cast<f64>(values.size());
  for (const f64 p : {0.99, 0.9}) {
    if (n * (1.0 - p) >= 10.0) return {p, percentile(values, p)};
  }
  return {0.5, percentile(values, 0.5)};
}

f64 peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

f64 process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<f64>(tv.tv_sec) + 1e-6 * static_cast<f64>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

f64 host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  u64 user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
      softirq = 0, steal = 0;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return 0.0;
  }
  return static_cast<f64>(steal) / static_cast<f64>(sysconf(_SC_CLK_TCK));
}

Clock Clock::now() { return {now_s(), process_cpu_s(), host_steal_s()}; }

f64 steady_s(const Clock& from, const Clock& to) {
  const f64 wall = to.wall - from.wall;
  const f64 cpu = to.cpu - from.cpu;
  const f64 steal = to.steal - from.steal;
  if (cpu <= 0.0 || steal <= 0.0) return wall;
  return wall * cpu / (cpu + steal);
}

void HostSpeed::probe() {
  // A dependent chain of multiply-adds over an L2-resident array. Without
  // -ffast-math the compiler may neither vectorise nor reorder it, so its
  // time follows the core's clock and its share of the physical core.
  static const std::vector<f64> data = [] {
    std::vector<f64> v(1 << 15);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1.0 + 1e-9 * static_cast<f64>(i);
    }
    return v;
  }();
  constexpr std::size_t kMask = (1 << 15) - 1;
  timespec t0{}, t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  f64 acc = 0.0;
  for (std::size_t r = 0; r < 600; ++r) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      acc += data[i] * data[(i + r) & kMask];
    }
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  checksum_ += acc;  // keeps the loop live
  probe_ms_.push_back(1e3 * static_cast<f64>(t1.tv_sec - t0.tv_sec) +
                      1e-6 * static_cast<f64>(t1.tv_nsec - t0.tv_nsec));
}

void start_apart(const std::function<void()>& start) {
  // The two highest CPUs the process may use when it first gets here; CPU 0
  // takes more of the interrupts. Later calls must not read the affinity
  // back, as it is then narrowed to one CPU.
  static const std::pair<int, int> cpus = [] {
    std::pair<int, int> found{-1, -1};
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return found;
    for (int c = CPU_SETSIZE - 1; c >= 0 && found.second < 0; --c) {
      if (!CPU_ISSET(c, &allowed)) continue;
      (found.first < 0 ? found.first : found.second) = c;
    }
    return found;
  }();
  auto pin_self = [](int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof set, &set);  // best effort
  };
  if (cpus.second < 0) {
    start();
    return;
  }
  pin_self(cpus.second);  // threads started now inherit this CPU
  start();
  pin_self(cpus.first);
}

std::vector<md::Snapshot> walker_cells(i32 n, i64 count, u64 seed) {
  constexpr f64 kLatticeCu = 3.615;
  const md::Structure fcc = md::make_fcc(kLatticeCu, n, n, n);
  Rng rng(seed);
  std::vector<md::Snapshot> cells;
  for (i64 i = 0; i < count; ++i) {
    md::Snapshot snap;
    snap.cell = fcc.cell;
    snap.types = fcc.types;
    snap.positions = fcc.positions;
    for (md::Vec3& p : snap.positions) {
      p.x += 0.02 * kLatticeCu * rng.gaussian();
      p.y += 0.02 * kLatticeCu * rng.gaussian();
      p.z += 0.02 * kLatticeCu * rng.gaussian();
    }
    cells.push_back(std::move(snap));
  }
  return cells;
}

bool bitwise_equal(f64 a, f64 b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace fekf::perfbench
