//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support library: symbols, RNG, permutations,
/// formatting, CLI count parsing, the CRC-32.
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

TEST(Format, ParseCountIsRangeChecked) {
  constexpr uint64_t U64 = ~0ULL;
  constexpr uint64_t U32 = 0xFFFFFFFFu;
  uint64_t V = 7;
  EXPECT_TRUE(parseCount("0", U64, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseCount("18446744073709551615", U64, V));
  EXPECT_EQ(V, U64);
  EXPECT_TRUE(parseCount("4294967295", U32, V));
  EXPECT_EQ(V, U32);
  // A refused value leaves Out alone.
  V = 7;
  EXPECT_FALSE(parseCount("18446744073709551616", U64, V));
  EXPECT_FALSE(parseCount("99999999999999999999999", U64, V));
  // strtoull reads these as 2^64 - 1 and 2^32: each would wrap a 32-bit
  // destination (--workers -1, --queue-cap 4294967296).
  EXPECT_FALSE(parseCount("-1", U64, V));
  EXPECT_FALSE(parseCount("4294967296", U32, V));
  // A shifted flag's maximum keeps the shift from overflowing.
  EXPECT_TRUE(parseCount("17592186044415", U64 >> 20, V));
  EXPECT_FALSE(parseCount("17592186044416", U64 >> 20, V));
  EXPECT_FALSE(parseCount("5", 3, V));
  EXPECT_TRUE(parseCount("3", 3, V));
  for (const char *Bad : {"", "+1", " 1", "1 ", "0x10", "1e3", "12a"})
    EXPECT_FALSE(parseCount(Bad, U64, V)) << "'" << Bad << "'";
  EXPECT_FALSE(parseCount(nullptr, U64, V));
  EXPECT_EQ(V, 3u);
}

/// Byte-at-a-time bitwise CRC-32, straight from the definition: the
/// reference both paths of crc32 (the carry-less fold and its slice-by-8
/// tail) and crc32Portable must agree with.
uint32_t referenceCrc32(const unsigned char *P, size_t Len,
                        uint32_t Prev = 0) {
  uint32_t C = Prev ^ 0xFFFFFFFFu;
  for (size_t I = 0; I < Len; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> randomBytes(uint64_t Seed, size_t Len) {
  Rng R(Seed);
  std::vector<unsigned char> Data(Len);
  for (unsigned char &B : Data)
    B = static_cast<unsigned char>(R.below(256));
  return Data;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32Portable("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryAlignment) {
  // Every length 0..1100 from every start offset 0..15 and under three
  // seeds: the lengths cross the 64-byte fold threshold, every 16-byte
  // fold remainder and every slice-by-8 tail, and the offsets give the
  // unaligned loads every misalignment.
  const std::vector<unsigned char> Data = randomBytes(20261016, 1100 + 16);
  const uint32_t Seeds[] = {0u, 0xFFFFFFFFu,
                            static_cast<uint32_t>(Rng(7).below(1ULL << 32))};
  for (uint32_t Seed : Seeds)
    for (size_t Len = 0; Len <= 1100; ++Len)
      for (size_t Off = 0; Off < 16; ++Off) {
        const unsigned char *P = Data.data() + Off;
        uint32_t Want = referenceCrc32(P, Len, Seed);
        ASSERT_EQ(crc32(P, Len, Seed), Want)
            << "len " << Len << " offset " << Off << " seed " << Seed;
        ASSERT_EQ(crc32Portable(P, Len, Seed), Want)
            << "len " << Len << " offset " << Off << " seed " << Seed;
      }
}

TEST(Crc32, LongInputsMatchThePortableOracle) {
  // Past the exhaustive range: random lengths up to 4 MiB, so the
  // four-accumulator loop runs for many iterations before its reduction.
  Rng R(20261018);
  const std::vector<unsigned char> Data =
      randomBytes(20261019, (4u << 20) + 16);
  std::vector<size_t> Lens = {1101, 4096, 65536, 70000, 4u << 20};
  for (int I = 0; I < 12; ++I)
    Lens.push_back(R.below((4u << 20) + 1));
  for (size_t Len : Lens)
    for (size_t Off : {0, 3, 8, 15})
      ASSERT_EQ(crc32(Data.data() + Off, Len),
                crc32Portable(Data.data() + Off, Len))
          << "len " << Len << " offset " << Off;
  EXPECT_EQ(crc32(Data.data(), 70000), referenceCrc32(Data.data(), 70000));
}

TEST(Crc32, AContinuedCrcEqualsTheOneShotValueAtEverySplit) {
  const std::vector<unsigned char> Data = randomBytes(20261017, 1024);
  const uint32_t Whole = crc32(Data.data(), Data.size());
  EXPECT_EQ(Whole, referenceCrc32(Data.data(), Data.size()));
  for (size_t Split = 0; Split <= Data.size(); ++Split) {
    ASSERT_EQ(crc32(Data.data() + Split, Data.size() - Split,
                    crc32(Data.data(), Split)),
              Whole)
        << "split at " << Split;
    ASSERT_EQ(crc32Portable(Data.data() + Split, Data.size() - Split,
                            crc32Portable(Data.data(), Split)),
              Whole)
        << "split at " << Split;
  }
}

TEST(Crc32, AContinuedCrcOverFourMiBEqualsTheOneShotValue) {
  const std::vector<unsigned char> Data = randomBytes(20261020, 4u << 20);
  const uint32_t Whole = crc32Portable(Data.data(), Data.size());
  EXPECT_EQ(crc32(Data.data(), Data.size()), Whole);
  Rng R(20261021);
  std::vector<size_t> Splits = {1, 15, 16, 63, 64, 65, 2u << 20,
                                Data.size() - 1};
  for (int I = 0; I < 8; ++I)
    Splits.push_back(R.below(Data.size() + 1));
  for (size_t Split : Splits)
    ASSERT_EQ(crc32(Data.data() + Split, Data.size() - Split,
                    crc32(Data.data(), Split)),
              Whole)
        << "split at " << Split;
}

} // namespace
