//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent warm-start store for the BehaviourCache verdicts (TSCS,
/// "TraceSafe Cache Store").
///
/// A restarted daemon starts cache-cold: every verdict it served before
/// the restart costs a full exploration again. The store spills each
/// fresh insertion (via BehaviourCache::setPersistSink) to an append-only
/// file and loads the file's valid prefix back on start-up, so the warm
/// set survives restarts. The keys are pure canonical text (see
/// Canonical.h), with no process-local state such as SymbolIds, so they
/// mean the same in another process.
///
/// The file is a support/RecordLog: a 16-byte header, then one
/// CRC-framed record per entry, each written whole as it is appended.
/// Loads stop at the first invalid record (valid-prefix semantics): a torn
/// tail from a crash mid-append costs at most the last entry, never the
/// file, and a corrupt record mid-file ends the load there. `open`
/// truncates everything after the valid prefix before appending, so the
/// file can only grow valid records.
///
/// The header's epoch word holds the VerdictSemanticsEpoch the entries
/// were rendered and keyed under. A store with another epoch loads nothing and is
/// restarted with a fresh header, so verdict bytes from an older engine
/// are never served.
///
/// Layout (all integers little-endian):
///
///   file header:  u32 magic 'TSCS' | u8 version 1 | u8[3] zero
///                 | u64 semantics epoch
///   record:       u32 magic 'TSCB' | u32 payloadLen | u32 crc32(payload)
///                 | u32 zero | payload
///   payload:      u32 keyLen | key bytes
///                 | u8 verdictKind | u8 truncationReason | u16 zero
///                 | u64 costVisits | u64 costBytes
///                 | u32 detailLen | detail bytes
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_VERIFY_CACHESTORE_H
#define TRACESAFE_VERIFY_CACHESTORE_H

#include "support/RecordLog.h"
#include "verify/BehaviourCache.h"

#include <atomic>
#include <string>

namespace tracesafe {

/// Version of the engines' verdict semantics: which verdict kind and
/// Detail bytes a query yields, under which key. Bump it in any change
/// that alters verdict bytes or the key format, so persisted stores
/// written before the change stop loading. Stores written before the
/// epoch existed hold 0.
///  - 1: DrfGuarantee and ThinAir run on [[P]] plus the execution
///    enumerator (their visit costs change), and a racy original's
///    DrfGuarantee Detail reports the unsearched transformed side as
///    `trans-drf=0 preserved=0`.
///  - 2: keys are built from the token stream (verify/Canonical.h), not
///    printed from the AST; the canonical text bytes changed.
///  - 3: DrfGuarantee and ThinAir certify before they explore
///    (verify/Checks.h): a certified pair's Visited counts the rewrite
///    sites tried instead of the searches it skips.
constexpr uint64_t VerdictSemanticsEpoch = 3;

/// What a load found. HeaderOk=false means the file exists but is not a
/// TSCS store (wrong magic/version) — the caller should refuse to append
/// to it rather than corrupt whatever it is.
struct CacheStoreInfo {
  bool HeaderOk = true;
  bool TornTail = false;       ///< load stopped at an invalid block
  uint64_t Loaded = 0;         ///< entries inserted into the cache
  uint64_t Blocks = 0;         ///< valid blocks seen (>= Loaded)
  uint64_t ValidPrefixBytes = 0; ///< header + valid blocks
  uint64_t DroppedBytes = 0;   ///< bytes after the valid prefix
  /// Set when HeaderOk is false, and when the store carries another
  /// semantics epoch (then nothing loads and open() restarts the file).
  std::string Error;
};

/// Loads the valid prefix of the store at \p Path into \p Cache's query
/// family (Notify=false: loading never re-triggers the persist sink, so
/// install the sink after loading or rely on this flag). A missing or
/// empty file loads zero entries successfully. Blocks that frame
/// malformed payloads (bad lengths, an Unknown verdict kind) are counted
/// in Blocks but not Loaded. A store from another semantics epoch loads
/// nothing and says so in Error.
CacheStoreInfo loadCacheStore(const std::string &Path, BehaviourCache &Cache);

/// The append side. One writer per file; append() may be called from
/// several worker threads (the BehaviourCache persist sink runs on
/// whichever worker inserted).
class CacheStore {
public:
  CacheStore() = default;
  ~CacheStore() { close(); }
  CacheStore(const CacheStore &) = delete;
  CacheStore &operator=(const CacheStore &) = delete;

  /// Opens \p Path for appending, creating it (with a fresh header) when
  /// missing or from another semantics epoch, and truncating whatever
  /// follows the valid prefix of an existing store. Returns false with
  /// \p Err set when the file is unusable (not a TSCS store, unwritable).
  bool open(const std::string &Path, std::string &Err);

  /// Appends one entry as a CRC-framed record. No-op when closed or when
  /// the entry exceeds the record payload bound.
  void append(const std::string &Key, const BehaviourCache::CachedQuery &E);

  void close() { Log.close(); }

  bool isOpen() const { return Log.isOpen(); }
  uint64_t appended() const { return Appended.load(); }

private:
  RecordLogWriter Log;
  std::atomic<uint64_t> Appended{0};
};

} // namespace tracesafe

#endif // TRACESAFE_VERIFY_CACHESTORE_H
