//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian field codec shared by every binary format: daemon
/// wire payloads (daemon/Protocol.h), support/RecordLog files and the
/// record payloads written into them (the daemon journal, the fuzz
/// checkpoint journal, the TSCS verdict store).
///
/// Integers are little-endian; a string is a u32 length followed by its
/// bytes, binary-safe end to end.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_FIELDCODEC_H
#define TRACESAFE_SUPPORT_FIELDCODEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tracesafe {

void putU8(std::string &Out, uint8_t V);
void putU16(std::string &Out, uint16_t V);
void putU32(std::string &Out, uint32_t V);
void putU64(std::string &Out, uint64_t V);
void putStr(std::string &Out, std::string_view S);

uint16_t getU16(const unsigned char *P);
uint32_t getU32(const unsigned char *P);
uint64_t getU64(const unsigned char *P);

/// Bounds-checked cursor over a payload; every getter returns false once
/// the payload is exhausted or malformed (and stays false).
class PayloadReader {
public:
  explicit PayloadReader(std::string_view Buf) : Buf(Buf) {}
  bool u8(uint8_t &V);
  bool u16(uint16_t &V);
  bool u32(uint32_t &V);
  bool u64(uint64_t &V);
  bool str(std::string &V);
  /// True iff every byte was consumed and no getter failed.
  bool done() const { return Ok && Pos == Buf.size(); }

private:
  /// The next \p N bytes, or null (and the reader failed) when fewer
  /// remain.
  const unsigned char *take(size_t N);

  std::string_view Buf;
  size_t Pos = 0;
  bool Ok = true;
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_FIELDCODEC_H
