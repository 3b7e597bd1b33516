//===----------------------------------------------------------------------===//
///
/// \file
/// The one CRC-32 of the code base.
///
/// Every checksummed byte stream uses it: daemon wire frames
/// (daemon/Protocol.h), TSRL event-log blocks (racelog/Log.h) and the
/// records of every support/RecordLog file (the daemon journal, the fuzz
/// checkpoint journal and the TSCS verdict store). It is the standard reflected
/// CRC-32 (polynomial 0xEDB88320, the zlib/PNG one; crc32("123456789") ==
/// 0xCBF43926).
///
/// On x86-64 hosts with PCLMULQDQ and SSE4.1 (detected once at run time; the
/// build needs no -march flag) inputs of 64 bytes or more are folded 64
/// bytes per iteration by carry-less multiplication, at memory speed, and
/// the last 0..15 bytes go through slice-by-8. Other hosts run
/// slice-by-8 throughout: the byte-at-a-time table walk would make
/// checksumming a MiB-sized frame or log cost more than scanning it. Both
/// paths compute the same function, so every checksummed byte on disk or
/// on the wire is the same whichever host wrote it.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_CRC32_H
#define TRACESAFE_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>

namespace tracesafe {

/// CRC-32 of the \p Len bytes at \p Data. zlib-style continuation: passing
/// the CRC of a prefix as \p Prev extends it, so crc32(B, crc32(A)) equals
/// the CRC of A followed by B and a checksum already taken over A need not
/// be recomputed when B is appended.
uint32_t crc32(const void *Data, size_t Len, uint32_t Prev = 0);

/// crc32 by slice-by-8 alone, on every host: the fallback and tail of
/// crc32, kept callable as the oracle its tests and benches compare with.
uint32_t crc32Portable(const void *Data, size_t Len, uint32_t Prev = 0);

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_CRC32_H
