#include "support/Crc32.h"

#include <cstring>

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

} // namespace

uint32_t tracesafe::crc32(const void *Data, size_t Len, uint32_t Prev) {
  const Crc32Slice8 &Tb = crcTables();
  const auto *P = static_cast<const unsigned char *>(Data);
  uint32_t C = Prev ^ 0xFFFFFFFFu;
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
  return C ^ 0xFFFFFFFFu;
}
