#include "support/FieldCodec.h"

using namespace tracesafe;

void tracesafe::putU8(std::string &Out, uint8_t V) {
  Out.push_back(static_cast<char>(V));
}

void tracesafe::putU16(std::string &Out, uint16_t V) {
  Out.push_back(static_cast<char>(V & 0xFF));
  Out.push_back(static_cast<char>((V >> 8) & 0xFF));
}

void tracesafe::putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

void tracesafe::putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
}

void tracesafe::putStr(std::string &Out, std::string_view S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out += S;
}

uint16_t tracesafe::getU16(const unsigned char *P) {
  return static_cast<uint16_t>(P[0] | (P[1] << 8));
}

uint32_t tracesafe::getU32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

uint64_t tracesafe::getU64(const unsigned char *P) {
  return static_cast<uint64_t>(getU32(P)) |
         (static_cast<uint64_t>(getU32(P + 4)) << 32);
}

const unsigned char *PayloadReader::take(size_t N) {
  if (!Ok || N > Buf.size() - Pos) {
    Ok = false;
    return nullptr;
  }
  const auto *P = reinterpret_cast<const unsigned char *>(Buf.data()) + Pos;
  Pos += N;
  return P;
}

bool PayloadReader::u8(uint8_t &V) {
  const unsigned char *P = take(1);
  if (!P)
    return false;
  V = *P;
  return true;
}

bool PayloadReader::u16(uint16_t &V) {
  const unsigned char *P = take(2);
  if (!P)
    return false;
  V = getU16(P);
  return true;
}

bool PayloadReader::u32(uint32_t &V) {
  const unsigned char *P = take(4);
  if (!P)
    return false;
  V = getU32(P);
  return true;
}

bool PayloadReader::u64(uint64_t &V) {
  const unsigned char *P = take(8);
  if (!P)
    return false;
  V = getU64(P);
  return true;
}

bool PayloadReader::str(std::string &V) {
  uint32_t Len = 0;
  if (!u32(Len))
    return false;
  const unsigned char *P = take(Len);
  if (!P)
    return false;
  V.assign(reinterpret_cast<const char *>(P), Len);
  return true;
}
