#include "support/Crc32.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TRACESAFE_CRC32_CLMUL 1
#include <immintrin.h>
#endif

using namespace tracesafe;

namespace {

/// Eight derived tables: table 0 is the classic byte-at-a-time table, and
/// T[k][b] extends T[k-1][b] by one zero byte, so eight input bytes fold
/// into eight independent table reads per iteration instead of eight
/// serially dependent ones.
struct Crc32Slice8 {
  uint32_t T[8][256];
  Crc32Slice8() {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (int K = 1; K < 8; ++K)
      for (uint32_t I = 0; I < 256; ++I)
        T[K][I] = T[0][T[K - 1][I] & 0xFF] ^ (T[K - 1][I] >> 8);
  }
};

const Crc32Slice8 &crcTables() {
  static Crc32Slice8 Tables;
  return Tables;
}

/// Slice-by-8 over \p Len bytes, on the pre-inverted register \p C.
uint32_t slice8(const unsigned char *P, size_t Len, uint32_t C) {
  const Crc32Slice8 &Tb = crcTables();
  while (Len >= 8) {
    uint32_t Lo, Hi;
    std::memcpy(&Lo, P, 4);
    std::memcpy(&Hi, P + 4, 4);
    Lo ^= C;
    C = Tb.T[7][Lo & 0xFF] ^ Tb.T[6][(Lo >> 8) & 0xFF] ^
        Tb.T[5][(Lo >> 16) & 0xFF] ^ Tb.T[4][Lo >> 24] ^
        Tb.T[3][Hi & 0xFF] ^ Tb.T[2][(Hi >> 8) & 0xFF] ^
        Tb.T[1][(Hi >> 16) & 0xFF] ^ Tb.T[0][Hi >> 24];
    P += 8;
    Len -= 8;
  }
  while (Len--)
    C = Tb.T[0][(C ^ *P++) & 0xFF] ^ (C >> 8);
  return C;
}

#ifdef TRACESAFE_CRC32_CLMUL

#define CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CLMUL_TARGET inline __m128i load16(const unsigned char *At) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(At));
}

/// Multiplies both halves of \p X by the matching halves of \p K and adds
/// \p Next: X moved forward by K's fold distance and added to the data
/// found there.
CLMUL_TARGET inline __m128i fold(__m128i X, __m128i K, __m128i Next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X, K, 0x00),
                                     _mm_clmulepi64_si128(X, K, 0x11)),
                       Next);
}

/// Carry-less-multiply folding (Intel, "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", 2009; the reflected-domain
/// variant zlib's crc32_simd uses) over \p Len bytes, on the pre-inverted
/// register \p C. \p Len must be a multiple of 16 and at least 64. The
/// constants are x^k mod P for the fold distances, bit-reflected:
/// K1/K2 fold 512 bits (four accumulators, 64 bytes per iteration), K3/K4
/// fold 128 bits, K5 folds 64 bits down to 32, and Mu/P' drive the
/// Barrett reduction to the 32-bit remainder.
CLMUL_TARGET uint32_t foldClmul(const unsigned char *P, size_t Len,
                                uint32_t C) {
  const __m128i K1K2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i K3K4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i K5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i Poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i Low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i X1 =
      _mm_xor_si128(load16(P), _mm_cvtsi32_si128(static_cast<int>(C)));
  __m128i X2 = load16(P + 16), X3 = load16(P + 32), X4 = load16(P + 48);
  P += 64;
  Len -= 64;
  for (; Len >= 64; P += 64, Len -= 64) {
    X1 = fold(X1, K1K2, load16(P));
    X2 = fold(X2, K1K2, load16(P + 16));
    X3 = fold(X3, K1K2, load16(P + 32));
    X4 = fold(X4, K1K2, load16(P + 48));
  }
  X1 = fold(X1, K3K4, X2);
  X1 = fold(X1, K3K4, X3);
  X1 = fold(X1, K3K4, X4);
  for (; Len >= 16; P += 16, Len -= 16)
    X1 = fold(X1, K3K4, load16(P));

  // 128 -> 64 bits, then 64 -> 32 bits.
  X1 = _mm_xor_si128(_mm_srli_si128(X1, 8),
                     _mm_clmulepi64_si128(X1, K3K4, 0x10));
  X1 = _mm_xor_si128(_mm_srli_si128(X1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(X1, Low32), K5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i T = _mm_clmulepi64_si128(_mm_and_si128(X1, Low32), Poly, 0x10);
  T = _mm_clmulepi64_si128(_mm_and_si128(T, Low32), Poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(X1, T), 1));
}

bool cpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#undef CLMUL_TARGET
#endif

} // namespace

uint32_t tracesafe::crc32(const void *Data, size_t Len, uint32_t Prev) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint32_t C = Prev ^ 0xFFFFFFFFu;
#ifdef TRACESAFE_CRC32_CLMUL
  static const bool UseClmul = cpuHasClmul();
  if (Len >= 64 && UseClmul) {
    size_t Folded = Len & ~size_t{15};
    C = foldClmul(P, Folded, C);
    P += Folded;
    Len -= Folded;
  }
#endif
  return slice8(P, Len, C) ^ 0xFFFFFFFFu;
}

uint32_t tracesafe::crc32Portable(const void *Data, size_t Len,
                                  uint32_t Prev) {
  return slice8(static_cast<const unsigned char *>(Data), Len,
                Prev ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}
