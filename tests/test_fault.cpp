// Fault-DSL tests (DESIGN.md §10): spec grammar (repeat counts, payload
// qualifiers), single-line diagnostics naming
// the offending token for every malformed-spec edge case, and the
// corrupt_file hardening (missing/empty/one-byte files).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/fault.hpp"

namespace fekf {
namespace {

/// Restores the ambient FEKF_FAULT_SPEC arms on scope exit so these tests
/// never leak explicit arms into later suites.
struct Guard {
  ~Guard() { FaultInjector::instance().configure_from_env(); }
};

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name + "." +
             std::to_string(static_cast<long long>(::getpid()))) {}
  ~TempFile() { std::remove(path.c_str()); }
};

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesArmsAndQualifiers) {
  Guard g;
  auto& inj = FaultInjector::instance();
  inj.configure(
      "rank_fail@step=30x3,nan_grad@step=4,"
      "straggler@step=9,factor=2.5,rank=1");
  const std::vector<FaultArm> arms = inj.arms();
  ASSERT_EQ(arms.size(), 3u);
  EXPECT_EQ(arms[0].kind, "rank_fail");
  EXPECT_EQ(arms[0].at_step, 30);
  EXPECT_EQ(arms[0].repeat, 3);
  EXPECT_EQ(arms[1].kind, "nan_grad");
  EXPECT_EQ(arms[1].at_step, 4);
  EXPECT_EQ(arms[1].repeat, 1);
  EXPECT_EQ(arms[2].kind, "straggler");
  EXPECT_EQ(arms[2].at_step, 9);
  EXPECT_DOUBLE_EQ(arms[2].factor, 2.5);
  EXPECT_EQ(arms[2].rank, 1);
}

TEST(FaultSpec, KnownKindListCoversAllFive) {
  const auto kinds = fault_kind_names();
  ASSERT_EQ(kinds.size(), 5u);
  for (const char* k : {faults::kNanGrad, faults::kCorruptCkpt,
                        faults::kRankFail, faults::kRankJoin,
                        faults::kStraggler}) {
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), std::string_view(k)),
              kinds.end())
        << k;
  }
}

TEST(FaultSpec, RepeatCountFiresExactlyNTimes) {
  Guard g;
  auto& inj = FaultInjector::instance();
  inj.configure("rank_fail@step=5x3");
  EXPECT_FALSE(inj.fire(faults::kRankFail, 4));  // not yet eligible
  EXPECT_TRUE(inj.fire(faults::kRankFail, 5));
  EXPECT_TRUE(inj.fire(faults::kRankFail, 5));
  EXPECT_TRUE(inj.fire(faults::kRankFail, 6));
  EXPECT_FALSE(inj.fire(faults::kRankFail, 7));  // budget spent
  EXPECT_FALSE(inj.armed(faults::kRankFail));
}

TEST(FaultSpec, StepLessArmFiresOnFirstPoll) {
  Guard g;
  auto& inj = FaultInjector::instance();
  inj.configure("corrupt_ckpt");
  EXPECT_TRUE(inj.armed(faults::kCorruptCkpt));
  EXPECT_TRUE(inj.fire(faults::kCorruptCkpt, 1));
  EXPECT_FALSE(inj.fire(faults::kCorruptCkpt, 2));
}

TEST(FaultSpec, FireDetailCarriesPayloadQualifiers) {
  Guard g;
  auto& inj = FaultInjector::instance();
  inj.configure("straggler@factor=6,rank=2");
  const auto fired = inj.fire_detail(faults::kStraggler, 1);
  ASSERT_TRUE(fired.has_value());
  EXPECT_DOUBLE_EQ(fired->factor, 6.0);
  EXPECT_EQ(fired->rank, 2);
  // Unset qualifiers come back as sentinel -1 for the site default.
  inj.configure("rank_fail");
  const auto bare = inj.fire_detail(faults::kRankFail, 1);
  ASSERT_TRUE(bare.has_value());
  EXPECT_LT(bare->factor, 0.0);
  EXPECT_EQ(bare->rank, -1);
}

// ---------------------------------------------------------------------------
// Malformed specs: single-line Error naming the offending token
// ---------------------------------------------------------------------------

void expect_bad(const std::string& spec, const std::string& needle) {
  try {
    FaultInjector::instance().configure(spec);
    FAIL() << "spec '" << spec << "' was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos)
        << "'" << what << "' does not mention '" << needle << "'";
  }
}

TEST(FaultSpecErrors, EachMalformedSpecNamesTheOffendingToken) {
  Guard g;
  expect_bad("nan_grad,nan_grad", "duplicate arm");
  expect_bad("nan_grad,", "empty token");
  expect_bad(",nan_grad", "empty token");
  expect_bad("nan_grad,,corrupt_ckpt", "empty token");
  expect_bad("typo_kind", "unknown fault kind 'typo_kind'");
  expect_bad("nan_grad@bogus=3", "unknown qualifier 'bogus='");
  expect_bad("factor=2", "qualifier with no fault kind");
  expect_bad("nan_grad@step=3x0", "repeat count must be >= 1");
  expect_bad("nan_grad@step=-1", "step must be >= 0");
  expect_bad("nan_grad@step=", "expected a number");
  expect_bad("nan_grad@step=3q", "trailing characters after step");
  // Kinds and qualifiers this build does not have are unknown.
  expect_bad("msg_drop", "unknown fault kind 'msg_drop'");
  expect_bad("msg_corrupt@step=1",
             "unknown fault kind 'msg_corrupt' (want "
             "nan_grad|corrupt_ckpt|rank_fail|rank_join|straggler) in token "
             "'msg_corrupt@step=1'");
  expect_bad("rank_fail@p=0.5", "unknown qualifier 'p=' (want "
                                "step|factor|rank) in token 'p=0.5'");
  expect_bad("straggler@factor=0", "factor must be finite and > 0");
  expect_bad("straggler@rank=-2", "rank must be >= 0");
}

TEST(FaultSpecErrors, MalformedSpecLeavesArmsUnchanged) {
  Guard g;
  auto& inj = FaultInjector::instance();
  inj.configure("nan_grad@step=3");
  EXPECT_THROW(inj.configure("nan_grad,bogus_kind"), Error);
  ASSERT_EQ(inj.arms().size(), 1u);  // previous arms survive the throw
  EXPECT_TRUE(inj.armed(faults::kNanGrad));
}

TEST(FaultSpecErrors, EmptySpecDisarmsEverything) {
  Guard g;
  auto& inj = FaultInjector::instance();
  inj.configure("nan_grad@step=3");
  inj.configure("");
  EXPECT_TRUE(inj.arms().empty());
  EXPECT_FALSE(inj.fire(faults::kNanGrad, 3));
}

// ---------------------------------------------------------------------------
// corrupt_file hardening (missing / empty / one-byte files)
// ---------------------------------------------------------------------------

TEST(CorruptFile, MissingFileThrowsInsteadOfUB) {
  try {
    FaultInjector::corrupt_file("/nonexistent/fekf_no_such_file");
    FAIL() << "missing file was corrupted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("missing file"), std::string::npos)
        << e.what();
  }
}

TEST(CorruptFile, EmptyFileThrowsInsteadOfUB) {
  TempFile file("fekf_corrupt_empty");
  spit(file.path, "");
  try {
    FaultInjector::corrupt_file(file.path);
    FAIL() << "empty file was corrupted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("empty file"), std::string::npos)
        << e.what();
  }
}

TEST(CorruptFile, OneByteFileIsFlippedInPlace) {
  TempFile file("fekf_corrupt_onebyte");
  spit(file.path, "A");
  FaultInjector::corrupt_file(file.path);
  EXPECT_EQ(slurp(file.path), "a");  // 'A' ^ 0x20, size unchanged
}

TEST(CorruptFile, FlipsExactlyTheMiddleByte) {
  TempFile file("fekf_corrupt_middle");
  const std::string original = "0123456789";
  spit(file.path, original);
  FaultInjector::corrupt_file(file.path);
  const std::string corrupted = slurp(file.path);
  ASSERT_EQ(corrupted.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (i == original.size() / 2) {
      EXPECT_EQ(corrupted[i], static_cast<char>(original[i] ^ 0x20));
    } else {
      EXPECT_EQ(corrupted[i], original[i]) << "byte " << i;
    }
  }
}

}  // namespace
}  // namespace fekf
