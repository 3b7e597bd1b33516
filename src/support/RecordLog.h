//===----------------------------------------------------------------------===//
///
/// \file
/// The one append-only on-disk record format: the daemon journal, the fuzz
/// checkpoint journal and the TSCS verdict store are all record logs.
///
/// A file is a 16-byte header followed by CRC-framed records (all integers
/// little-endian, the CRC is support/Crc32.h's):
///
///   file header:   u32 file magic | u8 version | u8[3] zero | u64 epoch
///   record header: u32 record magic | u32 payloadLen | u32 crc32(payload)
///                  | u32 zero
///   payload:       payloadLen bytes, owned by the caller
///
/// The epoch word is the caller's (TSCS keeps its verdict semantics epoch
/// there; the journals keep 0): a file whose epoch differs from the
/// format's is stale, loads nothing, and is restarted by a resuming
/// writer. Reads are valid-prefix walks: the first record with a bad magic,
/// an oversized or short length, or a CRC mismatch ends the log, and
/// nothing at or after it is ever handed to the caller. A torn tail from a
/// crash mid-append and a byte flipped mid-file are therefore both
/// detected, never replayed.
///
/// Durability scope: each append goes out in one writev(2) (resumed only
/// if the descriptor takes part of it) on an unbuffered descriptor before
/// it returns, with no fsync. A record survives the process being killed
/// (kill -9) but not the machine losing power.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_RECORDLOG_H
#define TRACESAFE_SUPPORT_RECORDLOG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>

namespace tracesafe {

/// The identity of one kind of record log.
struct RecordLogFormat {
  const char *Name;     ///< for diagnostics, e.g. "TSCS"
  uint32_t FileMagic;
  uint8_t Version;
  uint32_t RecordMagic;
  /// Longer declared lengths are corruption; longer appends are refused.
  uint32_t MaxPayload;
  /// Written into fresh headers; see the file comment.
  uint64_t Epoch = 0;
};

constexpr size_t RecordLogHeaderSize = 16;
constexpr size_t RecordHeaderSize = 16;

/// What a valid-prefix walk found. A missing or empty file is an empty
/// log: HeaderOk, no records, zero bytes.
struct RecordScan {
  /// False when the bytes are not this kind of log (short header, foreign
  /// magic or version); Error then says why and nothing was walked.
  bool HeaderOk = true;
  std::string Error;
  /// The header carries another epoch than the format's: nothing was
  /// walked and ValidBytes is 0.
  bool Stale = false;
  uint64_t Epoch = 0;      ///< the file header's epoch
  uint64_t Records = 0;    ///< valid records walked
  uint64_t ValidBytes = 0; ///< header + valid records
  uint64_t TotalBytes = 0; ///< everything that was there
  /// Bytes after the valid prefix: a torn tail or a corrupt record.
  bool torn() const { return HeaderOk && !Stale && ValidBytes < TotalBytes; }
};

using RecordVisitor = std::function<void(std::string_view Payload)>;

/// Walks the valid prefix of the log image \p Data, handing each record's
/// payload to \p Visit (may be null) in file order.
RecordScan scanRecords(std::string_view Data, const RecordLogFormat &F,
                       const RecordVisitor &Visit);

/// scanRecords over the file at \p Path (missing or unreadable = empty).
RecordScan readRecordLog(const std::string &Path, const RecordLogFormat &F,
                         const RecordVisitor &Visit);

/// One record whose payload is Head followed by Tail. Crc must be crc32
/// of that payload; a caller that already holds crc32(Head) continues it
/// over Tail (crc32's Prev argument) instead of reading Head again.
struct RecordPieces {
  std::string_view Head;
  std::string_view Tail;
  uint32_t Crc = 0;
};

/// The framed record of RecordPieces{Head, Tail, Crc} as one string,
/// byte for byte what writeRecords writes for it.
std::string encodeRecord(const RecordLogFormat &F, std::string_view Head,
                         std::string_view Tail, uint32_t Crc);

/// Writes \p Records, framed as encodeRecord frames them, to \p Fd with
/// one writev gathered from the caller's bytes, so no payload is copied.
/// A write the descriptor takes only part of, or none of for now (a full
/// non-blocking pipe), is waited on and resumed where it stopped. False
/// on a write error.
bool writeRecords(int Fd, const RecordLogFormat &F,
                  std::initializer_list<RecordPieces> Records);

/// The one writer of a record log. append() may be called from several
/// threads; each record is written whole under the writer's lock.
class RecordLogWriter {
public:
  enum class Mode {
    /// Create the file, or truncate an existing one, and write a header
    /// carrying the format's epoch.
    Fresh,
    /// Walk the existing file's valid prefix, truncate whatever follows it
    /// and append after it. A file that is not this kind of log (foreign
    /// magic or version, a header shorter than 16 bytes) is refused and
    /// left untouched. A missing, empty or stale file is restarted as in
    /// Fresh.
    Resume,
  };

  RecordLogWriter() = default;
  ~RecordLogWriter() { close(); }
  RecordLogWriter(const RecordLogWriter &) = delete;
  RecordLogWriter &operator=(const RecordLogWriter &) = delete;

  /// Opens \p Path in mode \p M; in Resume mode \p Visit (may be null)
  /// sees every record of the valid prefix first. False with \p Err set
  /// (it names the file) when the file is refused or cannot be written.
  bool open(const std::string &Path, const RecordLogFormat &F, Mode M,
            std::string &Err, const RecordVisitor &Visit = nullptr);

  /// Frames and appends one record. False when closed, when the payload
  /// exceeds the format's bound, or when the write fails.
  bool append(std::string_view Payload);
  /// Appends \p Records with one writeRecords call. False when closed or
  /// when any payload exceeds the format's bound (nothing is written
  /// then), or when the write fails.
  bool appendRecords(std::initializer_list<RecordPieces> Records);

  void close();
  bool isOpen() const { return Fd >= 0; }

private:
  std::mutex M;
  int Fd = -1;
  RecordLogFormat Format{};
};

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_RECORDLOG_H
