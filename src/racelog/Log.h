//===----------------------------------------------------------------------===//
///
/// \file
/// The tracesafe binary event-log format ("TSRL"; see docs/TRACELOG.md).
///
/// A log is one observed execution of an arbitrarily large concurrent
/// program: a 16-byte file header followed by CRC-checked blocks of fixed
/// 16-byte little-endian event records (read, write, lock acquire/release,
/// fork, join). The framing mirrors the robustness contract of
/// support/RecordLog.h (the journals and the TSCS verdict store): a
/// crashed or truncated recorder leaves a valid prefix plus at most one
/// torn block, and the reader accepts exactly that prefix — a flipped bit
/// fails the block CRC, a torn tail fails the length check, and garbage
/// never parses as events. TSRL keeps its own block header rather than
/// being a record log: it is the recorder's input format, and each block
/// header carries the block's event count.
///
/// Block CRCs are the code base's one CRC-32 (support/Crc32.h: a
/// carry-less-multiply fold where the CPU has one, slice-by-8 elsewhere),
/// the same checksum the daemon frames and every record log use.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_RACELOG_LOG_H
#define TRACESAFE_RACELOG_LOG_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace tracesafe {
namespace racelog {

/// "TSRL" / "TSRB" as little-endian u32s.
constexpr uint32_t FileMagic = 0x4C525354;
constexpr uint32_t BlockMagic = 0x42525354;
constexpr uint8_t FormatVersion = 1;
constexpr size_t FileHeaderSize = 16;
constexpr size_t BlockHeaderSize = 16;
constexpr size_t EventRecordSize = 16;
/// Upper bound on one block's payload, so a corrupt length field is
/// rejected without a huge allocation or a runaway CRC pass.
constexpr uint32_t MaxBlockPayload = 4u << 20;
/// Writer default: 4096 events -> 64 KiB payloads, large enough to
/// amortise the per-block header + CRC to well under 1%.
constexpr size_t DefaultEventsPerBlock = 4096;

/// The six event kinds. On the wire an op byte outside [Read, Join] (or a
/// nonzero flags byte) marks the block — and everything after it — as
/// unusable tail even when the CRC matches.
enum class Op : uint8_t {
  Read = 1,    ///< data read of Addr by Tid
  Write = 2,   ///< data write of Addr by Tid
  Acquire = 3, ///< lock acquire; Addr is the lock id
  Release = 4, ///< lock release; Addr is the lock id
  Fork = 5,    ///< Tid forks thread Aux
  Join = 6,    ///< Tid joins thread Aux
};

const char *opName(Op O);

/// One decoded event. The wire record is exactly 16 little-endian bytes:
/// u8 op, u8 flags (must be 0), u16 tid, u32 aux (fork/join target tid,
/// else 0), u64 addr (data address or lock id).
struct LogEvent {
  Op Kind = Op::Read;
  uint32_t Tid = 0;    ///< issuing thread; < MaxTids
  uint32_t Target = 0; ///< fork/join target tid; < MaxTids
  uint64_t Addr = 0;   ///< data address (Read/Write) or lock id
};

/// Thread ids are 16 bits on the wire; the detector packs (tid, clock)
/// epochs into one u64 on the strength of this bound.
constexpr uint32_t MaxTids = 1u << 16;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Appends events into an in-memory log image. Blocks are emitted as they
/// fill; finish() flushes the final partial block and hands the bytes
/// over. The writer never produces a torn block — torn tails come from
/// crashed recorders and truncated copies, which is what the reader's
/// valid-prefix rule is for.
class LogWriter {
public:
  explicit LogWriter(size_t EventsPerBlock = DefaultEventsPerBlock);

  void append(const LogEvent &E);
  void append(Op Kind, uint32_t Tid, uint64_t Addr, uint32_t Target = 0) {
    append(LogEvent{Kind, Tid, Target, Addr});
  }

  uint64_t events() const { return Events; }

  /// Flushes the pending block and returns the complete log bytes. The
  /// writer is spent afterwards.
  std::string finish();

private:
  void flushBlock();

  std::string Out;
  std::string Pending; ///< record bytes of the open block
  size_t EventsPerBlock;
  uint64_t Events = 0;
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

/// Block-wise cursor over an in-memory log image with valid-prefix
/// semantics. Construction validates the file header; nextPayload() hands
/// out consecutive CRC-checked block payloads (raw 16-byte records) and
/// stops at the first unusable block, recording why and how many bytes
/// were dropped. A log that is nothing but a valid header is a valid
/// empty log; a file too short for the header, or with the wrong magic or
/// version, is not a log at all (ok() == false).
class BlockCursor {
public:
  explicit BlockCursor(std::string_view Bytes);

  /// False when the file header is unusable (error() says why). No
  /// payloads are produced.
  bool ok() const { return HeaderOk; }
  const std::string &error() const { return Error; }

  /// The next block's record bytes ({} at the end of the valid prefix).
  /// The view aliases the log image.
  std::string_view nextPayload();

  /// True once the cursor stopped before the end of the image: the
  /// remaining droppedBytes() are a torn or corrupt tail, and tailError()
  /// says what was wrong with its first block.
  bool tornTail() const { return Torn; }
  uint64_t droppedBytes() const { return Torn ? Bytes.size() - Pos : 0; }
  const std::string &tailError() const { return Error; }

  uint64_t blocks() const { return Blocks; }

private:
  std::string_view Bytes;
  size_t Pos = 0;
  uint64_t Blocks = 0;
  bool HeaderOk = false;
  bool Torn = false;
  bool Done = false;
  std::string Error;
};

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

/// Encodes \p E as its 16 wire bytes at \p Out.
void encodeEvent(const LogEvent &E, char *Out);

/// Decodes the 16 bytes at \p In. False on an invalid record (bad op,
/// nonzero flags, out-of-range fork/join target) — the caller treats the
/// whole containing block as unusable tail. Inline: the scanners call
/// this once per record, and an out-of-line call here costs as much as
/// the decode itself.
inline bool decodeEvent(const char *In, LogEvent &E) {
  uint8_t OpByte = static_cast<uint8_t>(In[0]);
  uint8_t Flags = static_cast<uint8_t>(In[1]);
  if (OpByte < static_cast<uint8_t>(Op::Read) ||
      OpByte > static_cast<uint8_t>(Op::Join) || Flags != 0)
    return false;
  E.Kind = static_cast<Op>(OpByte);
  uint16_t Tid;
  __builtin_memcpy(&Tid, In + 2, 2);
  E.Tid = Tid;
  uint32_t Aux;
  __builtin_memcpy(&Aux, In + 4, 4);
  bool IsForkJoin = E.Kind == Op::Fork || E.Kind == Op::Join;
  if (IsForkJoin ? Aux >= MaxTids : Aux != 0)
    return false;
  E.Target = IsForkJoin ? Aux : 0;
  __builtin_memcpy(&E.Addr, In + 8, 8);
  return true;
}

/// Convenience: decode an entire log image into \p Out (appending).
/// Returns false only when the header is unusable; a torn tail still
/// returns true with the valid prefix decoded.
struct DecodedLog {
  std::string Error;  ///< non-empty when the header was unusable
  bool TornTail = false;
  uint64_t DroppedBytes = 0;
  uint64_t Blocks = 0;
};
bool decodeLog(std::string_view Bytes, std::vector<LogEvent> &Out,
               DecodedLog *Info = nullptr);

} // namespace racelog
} // namespace tracesafe

#endif // TRACESAFE_RACELOG_LOG_H
