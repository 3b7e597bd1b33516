//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support library: symbols, RNG, permutations,
/// formatting, the CRC-32.
///
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "support/Format.h"
#include "support/Permutation.h"
#include "support/Rng.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

#include <vector>

using namespace tracesafe;

namespace {

TEST(Symbol, InternIsIdempotent) {
  SymbolId A = Symbol::intern("support_test_sym");
  SymbolId B = Symbol::intern("support_test_sym");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Symbol::name(A), "support_test_sym");
}

TEST(Symbol, DistinctNamesGetDistinctIds) {
  EXPECT_NE(Symbol::intern("support_a"), Symbol::intern("support_b"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  bool Differs = false;
  for (int I = 0; I < 10 && !Differs; ++I)
    Differs = A.next() != B.next();
  EXPECT_TRUE(Differs);
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(Rng, RangeIsInclusive) {
  Rng R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Permutation, IdentityAndInversion) {
  Permutation Id = identityPermutation(5);
  EXPECT_TRUE(isPermutation(Id));
  EXPECT_EQ(invertPermutation(Id), Id);
  Permutation P = {2, 0, 1};
  EXPECT_TRUE(isPermutation(P));
  Permutation Inv = invertPermutation(P);
  EXPECT_EQ(Inv, (Permutation{1, 2, 0}));
}

TEST(Permutation, RejectsNonBijections) {
  EXPECT_FALSE(isPermutation({0, 0}));
  EXPECT_FALSE(isPermutation({0, 2}));
  EXPECT_TRUE(isPermutation({}));
}

TEST(Permutation, EnumeratesAllPermutations) {
  size_t Count = 0;
  forEachPermutation(
      4, [](const Permutation &, size_t) { return true; },
      [&](const Permutation &P) {
        EXPECT_TRUE(isPermutation(P));
        ++Count;
        return true;
      });
  EXPECT_EQ(Count, 24u);
}

TEST(Permutation, AdmissiblePruningCuts) {
  // Only permutations fixing position 0 survive.
  size_t Count = 0;
  forEachPermutation(
      4,
      [](const Permutation &P, size_t I) { return I != 0 || P[0] == 0; },
      [&](const Permutation &) {
        ++Count;
        return true;
      });
  EXPECT_EQ(Count, 6u);
}

TEST(Permutation, VisitCanStopEarly) {
  size_t Count = 0;
  bool Completed = forEachPermutation(
      4, [](const Permutation &, size_t) { return true; },
      [&](const Permutation &) { return ++Count < 5; });
  EXPECT_FALSE(Completed);
  EXPECT_EQ(Count, 5u);
}

TEST(Permutation, InversionCount) {
  EXPECT_EQ(inversionCount(identityPermutation(4)), 0u);
  EXPECT_EQ(inversionCount({3, 2, 1, 0}), 6u);
  EXPECT_EQ(inversionCount({1, 0}), 1u);
}

TEST(Format, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Format, Indent) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(indent("", 2), "");
}

/// Byte-at-a-time bitwise CRC-32, straight from the definition: the
/// reference the slice-by-8 table walk must agree with.
uint32_t referenceCrc32(const unsigned char *P, size_t Len) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryAlignment) {
  // Random lengths up to past 64 KiB, each checksummed from every start
  // offset 0..7, so the eight-byte loads and the byte tail both meet
  // every misalignment and every tail length.
  Rng R(20261016);
  std::vector<unsigned char> Data(70000 + 8);
  for (unsigned char &B : Data)
    B = static_cast<unsigned char>(R.below(256));
  std::vector<size_t> Lens = {0, 1, 7, 8, 9, 15, 16, 17, 70000};
  for (int I = 0; I < 40; ++I)
    Lens.push_back(R.below(70001));
  for (size_t Len : Lens)
    for (size_t Align = 0; Align < 8; ++Align)
      ASSERT_EQ(crc32(Data.data() + Align, Len),
                referenceCrc32(Data.data() + Align, Len))
          << "len " << Len << " align " << Align;
}

TEST(Crc32, AContinuedCrcEqualsTheOneShotValueAtEverySplit) {
  Rng R(20261017);
  std::vector<unsigned char> Data(300);
  for (unsigned char &B : Data)
    B = static_cast<unsigned char>(R.below(256));
  const uint32_t Whole = crc32(Data.data(), Data.size());
  for (size_t Split = 0; Split <= Data.size(); ++Split)
    ASSERT_EQ(crc32(Data.data() + Split, Data.size() - Split,
                    crc32(Data.data(), Split)),
              Whole)
        << "split at " << Split;
}

} // namespace
