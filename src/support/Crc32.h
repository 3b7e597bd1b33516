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
/// 0xCBF43926), computed slice-by-8: the byte-at-a-time table walk would
/// make checksumming a MiB-sized frame or log cost more than scanning it.
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

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_CRC32_H
