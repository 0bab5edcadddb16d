#include "md/neighbor.hpp"

#include <algorithm>
#include <cmath>

namespace fekf::md {

void NeighborList::build(std::span<const Vec3> positions, const Cell& cell,
                         f64 rcut) {
  FEKF_CHECK(rcut > 0.0, "rcut must be positive");
  rcut_ = rcut;
  const i64 n = static_cast<i64>(positions.size());
  // resize + clear keeps every list's storage from the previous build.
  lists_.resize(static_cast<std::size_t>(n));

  const Vec3 box = cell.lengths();
  const i32 sx = static_cast<i32>(std::ceil(rcut / box.x));
  const i32 sy = static_cast<i32>(std::ceil(rcut / box.y));
  const i32 sz = static_cast<i32>(std::ceil(rcut / box.z));
  const f64 rc2 = rcut * rcut;

  for (i64 i = 0; i < n; ++i) {
    auto& list = lists_[static_cast<std::size_t>(i)];
    list.clear();
    const Vec3 ri = positions[static_cast<std::size_t>(i)];
    for (i64 j = 0; j < n; ++j) {
      const Vec3 base = positions[static_cast<std::size_t>(j)] - ri;
      for (i32 ax = -sx; ax <= sx; ++ax) {
        // Image pruning (DESIGN.md §8): a shift whose x (then y) component
        // alone reaches rcut cannot pass the r2 < rc2 test below, so
        // skipping it drops only rejected candidates and the survivors
        // keep their (j, ax, ay, az) order.
        if (std::abs(base.x + ax * box.x) >= rcut) continue;
        for (i32 ay = -sy; ay <= sy; ++ay) {
          if (std::abs(base.y + ay * box.y) >= rcut) continue;
          for (i32 az = -sz; az <= sz; ++az) {
            if (i == j && ax == 0 && ay == 0 && az == 0) continue;
            const Vec3 d{base.x + ax * box.x, base.y + ay * box.y,
                         base.z + az * box.z};
            const f64 r2 = d.norm2();
            if (r2 < rc2 && r2 > 1e-12) {
              list.push_back(
                  Neighbor{static_cast<i32>(j), d, std::sqrt(r2)});
            }
          }
        }
      }
    }
    // Deterministic ordering: nearest first (the DeePMD environment matrix
    // sorts neighbors; doing it here makes both consumers reproducible).
    std::sort(list.begin(), list.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.r < b.r; });
  }
}

i64 NeighborList::max_count() const {
  i64 m = 0;
  for (const auto& l : lists_) m = std::max<i64>(m, static_cast<i64>(l.size()));
  return m;
}

}  // namespace fekf::md
