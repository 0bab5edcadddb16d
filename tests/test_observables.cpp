// Observable and learning-curve tooling tests: RDF normalization on an
// ideal gas and a perfect crystal, partial RDFs, MSD, and lcurve CSV
// round-trips.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "md/lattice.hpp"
#include "md/observables.hpp"
#include "train/lcurve.hpp"

namespace fekf::md {
namespace {

TEST(Rdf, IdealGasIsFlatAroundOne) {
  // Uniform random positions: g(r) ~ 1 for r beyond a couple of bins.
  Rng rng(4);
  Cell cell(12.0, 12.0, 12.0);
  std::vector<Vec3> pos;
  std::vector<i32> types;
  for (int i = 0; i < 220; ++i) {
    pos.push_back(Vec3{rng.uniform(0, 12), rng.uniform(0, 12),
                       rng.uniform(0, 12)});
    types.push_back(0);
  }
  RdfConfig cfg;
  cfg.r_max = 5.0;
  cfg.bins = 25;
  RdfAccumulator acc(cfg);
  for (int frame = 0; frame < 8; ++frame) {
    for (auto& p : pos) {
      p = cell.wrap(p + Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                             rng.uniform(-1, 1)});
    }
    acc.add_frame(pos, types, cell);
  }
  Rdf rdf = acc.finalize();
  f64 mean_tail = 0.0;
  int tail = 0;
  for (std::size_t b = 5; b < rdf.g.size(); ++b) {
    mean_tail += rdf.g[b];
    ++tail;
  }
  EXPECT_NEAR(mean_tail / tail, 1.0, 0.15);
}

TEST(Rdf, FccFirstShellPeak) {
  // Perfect FCC: sharp peak at a/sqrt(2), nothing below it.
  Structure s = make_fcc(3.6, 3, 3, 3);
  RdfConfig cfg;
  cfg.r_max = 4.0;
  cfg.bins = 40;
  RdfAccumulator acc(cfg);
  acc.add_frame(s.positions, s.types, s.cell);
  Rdf rdf = acc.finalize();
  const f64 nn = 3.6 / std::sqrt(2.0);
  std::size_t peak_bin = 0;
  for (std::size_t b = 1; b < rdf.g.size(); ++b) {
    if (rdf.g[b] > rdf.g[peak_bin]) peak_bin = b;
  }
  EXPECT_NEAR(rdf.r[peak_bin], nn, 0.15);
  // No density below 0.8 * nn.
  for (std::size_t b = 0; b < rdf.g.size(); ++b) {
    if (rdf.r[b] < 0.8 * nn) {
      EXPECT_EQ(rdf.g[b], 0.0);
    }
  }
}

TEST(Rdf, PartialRdfSelectsTypes) {
  Structure s = make_rocksalt(5.64, 2, 2, 2, 0, 1);
  RdfConfig unlike;
  unlike.r_max = 3.5;
  unlike.bins = 35;
  unlike.type_a = 0;
  unlike.type_b = 1;
  RdfAccumulator acc_ab(unlike);
  acc_ab.add_frame(s.positions, s.types, s.cell);
  Rdf ab = acc_ab.finalize();
  // Na-Cl nearest distance is a/2 = 2.82; the unlike partial must peak
  // there while the like-pair partial is empty below 3.5 (like nn = 3.99).
  std::size_t peak = 0;
  for (std::size_t b = 1; b < ab.g.size(); ++b) {
    if (ab.g[b] > ab.g[peak]) peak = b;
  }
  EXPECT_NEAR(ab.r[peak], 2.82, 0.15);

  RdfConfig like = unlike;
  like.type_b = 0;
  RdfAccumulator acc_aa(like);
  acc_aa.add_frame(s.positions, s.types, s.cell);
  Rdf aa = acc_aa.finalize();
  f64 total = 0.0;
  for (const f64 g : aa.g) total += g;
  EXPECT_EQ(total, 0.0);
  EXPECT_GT(Rdf::distance(ab, aa), 0.5);
}

TEST(Msd, ZeroForIdenticalFramesAndPositiveAfterMotion) {
  Structure s = make_fcc(3.6, 2, 2, 2);
  EXPECT_EQ(mean_squared_displacement(s.positions, s.positions, s.cell), 0.0);
  auto moved = s.positions;
  for (auto& p : moved) p = s.cell.wrap(p + Vec3{0.3, 0, 0});
  EXPECT_NEAR(mean_squared_displacement(s.positions, moved, s.cell), 0.09,
              1e-9);
}

TEST(Msd, UsesMinimumImage) {
  Cell cell(10, 10, 10);
  std::vector<Vec3> a{Vec3{9.8, 5, 5}};
  std::vector<Vec3> b{Vec3{0.2, 5, 5}};  // 0.4 Å across the boundary
  EXPECT_NEAR(mean_squared_displacement(a, b, cell), 0.16, 1e-9);
}

}  // namespace
}  // namespace fekf::md

namespace fekf::train {
namespace {

TEST(Lcurve, RoundTrips) {
  TrainResult result;
  for (i64 e = 1; e <= 3; ++e) {
    EpochRecord rec;
    rec.epoch = e;
    rec.cumulative_seconds = static_cast<f64>(e) * 1.5;
    rec.train.energy_rmse = 0.1 / static_cast<f64>(e);
    rec.train.force_rmse = 0.2 / static_cast<f64>(e);
    rec.test.energy_rmse = 0.15 / static_cast<f64>(e);
    rec.test.force_rmse = 0.25 / static_cast<f64>(e);
    rec.train.energy_offset_per_atom = -0.03 * static_cast<f64>(e);
    rec.train.energy_spread_per_atom = 0.004 / static_cast<f64>(e);
    rec.test.energy_offset_per_atom = 0.05 * static_cast<f64>(e);
    rec.test.energy_spread_per_atom = 0.006 / static_cast<f64>(e);
    result.history.push_back(rec);
  }
  const std::string path = std::string(::testing::TempDir()) + "lcurve.csv";
  write_lcurve(result, path);
  auto records = read_lcurve(path);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].epoch, result.history[i].epoch);
    EXPECT_NEAR(records[i].train.force_rmse,
                result.history[i].train.force_rmse, 1e-9);
    EXPECT_NEAR(records[i].train.energy_offset_per_atom,
                result.history[i].train.energy_offset_per_atom, 1e-9);
    EXPECT_NEAR(records[i].train.energy_spread_per_atom,
                result.history[i].train.energy_spread_per_atom, 1e-9);
    EXPECT_NEAR(records[i].test.energy_offset_per_atom,
                result.history[i].test.energy_offset_per_atom, 1e-9);
    EXPECT_NEAR(records[i].test.energy_spread_per_atom,
                result.history[i].test.energy_spread_per_atom, 1e-9);
  }
  std::remove(path.c_str());
}

TEST(Lcurve, ForeignHeaderThrows) {
  // A six-column file from before the offset columns, or any other CSV,
  // is rejected instead of parsing as an empty history.
  const std::string path =
      std::string(::testing::TempDir()) + "lcurve_old.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "epoch,seconds,train_e_rmse,train_f_rmse,test_e_rmse,test_f_rmse\n"
        "1,1.5,0.1,0.2,0.15,0.25\n",
        f);
    std::fclose(f);
  }
  EXPECT_THROW(read_lcurve(path), Error);
  std::remove(path.c_str());
}

TEST(Lcurve, MalformedRowThrows) {
  // A row cut short (a run killed mid-write) or holding a non-number is
  // rejected instead of ending the history early.
  TrainResult result;
  result.history.resize(2);
  const std::string path =
      std::string(::testing::TempDir()) + "lcurve_bad.csv";
  for (const char* bad : {"3,4.5,0.1\n", "3,4.5,x,0,0,0,0,0,0,0\n"}) {
    write_lcurve(result, path);
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs(bad, f);
    std::fclose(f);
    EXPECT_THROW(read_lcurve(path), Error) << bad;
  }
  write_lcurve(result, path);
  EXPECT_EQ(read_lcurve(path).size(), 2u);
  std::remove(path.c_str());
}

TEST(Lcurve, MissingFileThrows) {
  EXPECT_THROW(read_lcurve("/nonexistent/lcurve.csv"), Error);
}

}  // namespace
}  // namespace fekf::train
