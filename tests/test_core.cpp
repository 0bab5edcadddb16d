// Core utility tests: RNG statistics and determinism, CLI parsing, table
// rendering, the stopwatch, and error checking.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "core/cli.hpp"
#include "core/common.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"

namespace fekf {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  f64 sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const f64 u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIndexIsUnbiased) {
  Rng rng(6);
  const u64 buckets = 7;
  std::vector<int> counts(buckets, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_index(buckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<f64>(c), n / 7.0, 0.08 * n / 7.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(7);
  f64 sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const f64 g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(8);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  std::vector<int> original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  Cli cli("prog", "test");
  cli.flag("alpha", "1.5", "a").flag("name", "x", "n").flag("on", "false", "b");
  const char* argv[] = {"prog", "--alpha", "2.5", "--on"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha"), 2.5);
  EXPECT_EQ(cli.get("name"), "x");
  EXPECT_TRUE(cli.get_bool("on"));
  EXPECT_TRUE(cli.provided("alpha"));
  EXPECT_FALSE(cli.provided("name"));
}

TEST(Cli, EqualsSyntax) {
  Cli cli("prog", "test");
  cli.flag("k", "0", "int");
  const char* argv[] = {"prog", "--k=42"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("k"), 42);
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("prog", "test");
  cli.flag("k", "0", "int");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, BadNumberThrows) {
  Cli cli("prog", "test");
  cli.flag("k", "0", "int");
  const char* argv[] = {"prog", "--k", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_int("k"), Error);

  // Hostile values: empty, out of range (strto* would saturate), and the
  // non-finite spellings strtod accepts. Each is rejected with the flag's
  // one-line diagnostic.
  auto parsed = [](const char* value) {
    Cli c("prog", "test");
    c.flag("k", "0", "int").flag("x", "0", "number");
    const char* args[] = {"prog", "--k", value, "--x", value};
    EXPECT_TRUE(c.parse(5, args)) << value;
    return c;
  };
  for (const char* bad : {"", "99999999999999999999", "-99999999999999999999",
                          "1.5", " "}) {
    const Cli c = parsed(bad);
    try {
      (void)c.get_int("k");
      ADD_FAILURE() << "get_int accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--k: '" + std::string(bad) +
                                           "' is not an integer"),
                std::string::npos)
          << e.what();
    }
  }
  for (const char* bad : {"", "1e999", "-1e999", "nan", "NAN", "inf", "-inf",
                          "infinity", "1e-400", "2x"}) {
    const Cli c = parsed(bad);
    try {
      (void)c.get_double("x");
      ADD_FAILURE() << "get_double accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--x: '" + std::string(bad) +
                                           "' is not a number"),
                std::string::npos)
          << e.what();
    }
  }
  // Limits and ordinary values still parse.
  const Cli max = parsed("9223372036854775807");
  EXPECT_EQ(max.get_int("k"), std::numeric_limits<i64>::max());
  const Cli ok = parsed("-42");
  EXPECT_EQ(ok.get_int("k"), -42);
  EXPECT_EQ(ok.get_double("x"), -42.0);
  EXPECT_EQ(parsed("1e300").get_double("x"), 1e300);
}

TEST(Table, RendersAligned) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4  |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormatsCompactly) {
  EXPECT_EQ(Table::num(1.23456, 3), "1.235");
  EXPECT_EQ(Table::num(0.0), "0.0000");
  // Very large / tiny values switch to scientific notation.
  EXPECT_NE(Table::num(1.5e8).find("e"), std::string::npos);
}

TEST(Timer, MeasuresElapsed) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(w.milliseconds(), 15.0);
}

TEST(Check, MacroThrowsWithMessage) {
  try {
    FEKF_CHECK(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace fekf
