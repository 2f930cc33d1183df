//===- SupportTest.cpp - support library tests ---------------------------------===//

#include "src/support/Error.h"
#include "src/support/Hashing.h"
#include "src/support/Rng.h"
#include "src/support/StringUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace locus {
namespace {

TEST(Support, ExpectedAndStatus) {
  Expected<int> Ok(42);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 42);
  Expected<int> Err = Expected<int>::error("boom");
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.message(), "boom");

  Status S = Status::success();
  EXPECT_TRUE(S.ok());
  Status F = Status::error("bad");
  EXPECT_FALSE(F.ok());
  EXPECT_EQ(F.message(), "bad");
}

TEST(Support, Fnv1aIsStable) {
  // Known value so hashes stay comparable across platforms and runs (the
  // region-coherence keys depend on this).
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), fnv1a("a"));
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  uint64_t H = hashCombine(fnv1a("x"), 7);
  EXPECT_NE(H, fnv1a("x"));
}

TEST(Support, RngDeterminismAndRanges) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());

  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.range(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
  // All values of a small range appear.
  std::set<int64_t> Seen;
  for (int I = 0; I < 200; ++I)
    Seen.insert(R.range(0, 3));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(Support, RngBoundedIsUnbiased) {
  // range() uses Lemire's rejection sampler, not a modulo reduction. A
  // modulo over a span that does not divide 2^64 systematically favors the
  // low residues; for a span of 3 the worst-case bucket skew of `next() % 3`
  // is tiny, so instead check a statistical property that the rejection
  // sampler guarantees by construction and a biased reducer only
  // approximates: every bucket of several coprime spans stays within 4
  // sigma of the uniform expectation.
  for (int64_t Span : {3, 5, 7, 11, 48}) {
    Rng R(0xfeedULL + static_cast<uint64_t>(Span));
    const int Draws = 60000;
    std::vector<int> Buckets(static_cast<size_t>(Span), 0);
    for (int I = 0; I < Draws; ++I) {
      int64_t V = R.range(0, Span - 1);
      ASSERT_GE(V, 0);
      ASSERT_LT(V, Span);
      ++Buckets[static_cast<size_t>(V)];
    }
    double Expect = static_cast<double>(Draws) / static_cast<double>(Span);
    double Sigma = std::sqrt(Expect * (1.0 - 1.0 / static_cast<double>(Span)));
    for (int64_t B = 0; B < Span; ++B)
      EXPECT_NEAR(Buckets[static_cast<size_t>(B)], Expect, 4 * Sigma)
          << "span " << Span << " bucket " << B;
  }
}

TEST(Support, RngRangeCoversFullInt64Domain) {
  // The span Hi - Lo + 1 == 0 wraps only for the full 64-bit domain; it
  // must not crash or truncate.
  Rng R(41);
  int64_t Lo = std::numeric_limits<int64_t>::min();
  int64_t Hi = std::numeric_limits<int64_t>::max();
  bool SawNegative = false, SawPositive = false;
  for (int I = 0; I < 64; ++I) {
    int64_t V = R.range(Lo, Hi);
    SawNegative |= V < 0;
    SawPositive |= V > 0;
  }
  EXPECT_TRUE(SawNegative);
  EXPECT_TRUE(SawPositive);
}

TEST(Support, RngShuffleIsAPermutation) {
  Rng R(9);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(Support, StringUtils) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(trimString("  x y\t\n"), "x y");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(joinStrings({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(joinStrings({}, "."), "");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(endsWith("foobar", "bar"));
  EXPECT_FALSE(endsWith("ar", "bar"));
}

TEST(Support, ParseNumberConsumesExactlyOneNumber) {
  int64_t I = 7;
  EXPECT_TRUE(parseNumber("-42", I));
  EXPECT_EQ(I, -42);
  uint64_t U = 7;
  EXPECT_TRUE(parseNumber("ff", U, 16));
  EXPECT_EQ(U, 255u);
  double D = 0;
  EXPECT_TRUE(parseNumber("1.5e-3", D));
  EXPECT_DOUBLE_EQ(D, 1.5e-3);
  for (const char *Bad : {"", " 1", "1 ", "+1", "1x", "abc", "0x10"}) {
    SCOPED_TRACE(Bad);
    EXPECT_FALSE(parseNumber(Bad, I));
    EXPECT_FALSE(parseNumber(Bad, D));
  }
  // Unsigned fields reject a sign instead of wrapping to 2^64-1, and
  // out-of-range values are errors; failures leave the target untouched.
  U = 7;
  EXPECT_FALSE(parseNumber("-1", U));
  EXPECT_FALSE(parseNumber("18446744073709551616", U));
  EXPECT_EQ(U, 7u);
}

} // namespace
} // namespace locus
