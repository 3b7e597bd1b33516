//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic pseudo-random number generator (SplitMix64).
///
/// Used by the random program generator and the property-test harness. All
/// randomised components of the library are seeded explicitly so every test
/// and bench run is reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_RNG_H
#define TRACESAFE_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace tracesafe {

/// SplitMix64's increment (the golden-ratio constant).
constexpr uint64_t SplitMixGamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64's finaliser: a bijective 64-bit mix.
inline uint64_t splitMixFinalise(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// A decorrelated seed derived from base seed \p A and stream index \p B
/// (per-program fuzz sub-seeds, chaos fault-plan seeds): output number
/// B + 1 of a SplitMix64 stream started at \p A.
inline uint64_t mixSeeds(uint64_t A, uint64_t B = 0) {
  return splitMixFinalise(A + SplitMixGamma * (B + 1));
}

/// A small, fast, deterministic RNG (SplitMix64). Not cryptographic; plenty
/// for fuzzing program shapes.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  /// Next raw 64-bit value.
  uint64_t next() {
    State += SplitMixGamma;
    return splitMixFinalise(State);
  }

  /// Uniform value in [0, Bound). \p Bound must be positive.
  uint64_t below(uint64_t Bound) {
    assert(Bound > 0 && "below() requires a positive bound");
    return next() % Bound;
  }

  /// Uniform value in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "range() requires Lo <= Hi");
    return Lo + static_cast<int64_t>(below(static_cast<uint64_t>(Hi - Lo + 1)));
  }

  /// Bernoulli draw: true with probability Num/Den.
  bool chance(uint64_t Num, uint64_t Den) { return below(Den) < Num; }

private:
  uint64_t State;
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_RNG_H
