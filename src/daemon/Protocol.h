//===----------------------------------------------------------------------===//
///
/// \file
/// Wire protocol of the tracesafed verification daemon.
///
/// Length-prefixed binary frames over a stream socket (unix-domain or
/// TCP — the codec is transport-agnostic; see daemon/Transport.h for the
/// socket helpers). Every frame carries a fixed little-endian header —
/// magic, protocol version, frame type, flags, request id, payload
/// length, payload CRC32 — followed by the payload bytes, whose fields use
/// support/FieldCodec.h. The CRC makes torn or bit-flipped frames
/// detectable at the decoder instead of surfacing as garbage queries: a
/// corrupt stream is a *transport* error (reconnect and retry under
/// idempotent request ids), never a wrong verdict. The format mirrors the
/// journal's robustness contract (see docs/PROTOCOL.md for the byte
/// layout and docs/ROBUSTNESS.md for the recovery semantics).
///
/// Version 2 adds negotiated streaming: a client whose Hello carries the
/// streaming flag receives Progress frames (per-request heartbeats and
/// per-sub-query partial verdicts for Campaign queries) ahead of the
/// final Verdict. Version 1 peers keep the exact v1 byte layout — their
/// frames must carry zero flags (enforced at the decoder, so v2 flag
/// bits can never be silently misread by an old peer) and they are served
/// whole-frame verdicts only.
///
/// The codec is pure (strings in, strings out) so torn/truncated/garbage
/// frames are unit-testable without a socket; the fd helpers layer
/// blocking I/O and the ProtoRead/ProtoWrite fault-injection sites on
/// top.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_DAEMON_PROTOCOL_H
#define TRACESAFE_DAEMON_PROTOCOL_H

#include "support/Budget.h"
#include "support/FieldCodec.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tracesafe {
namespace daemon {

/// "TSFD" on the wire (little-endian u32).
constexpr uint32_t FrameMagic = 0x44465354;
/// Highest protocol revision this build speaks.
constexpr uint8_t ProtocolVersion = 2;
/// Lowest revision still served (v1 peers get whole-frame verdicts).
constexpr uint8_t MinProtocolVersion = 1;
/// Fixed header size in bytes; see docs/PROTOCOL.md.
constexpr size_t FrameHeaderSize = 24;
/// Upper bound on a single payload: a decoder must be able to reject a
/// corrupt length field without attempting a huge allocation.
constexpr uint32_t MaxFramePayload = 16u << 20;

/// v2 header flag bits. v1 frames must carry 0 (decoder-enforced); v2
/// frames may only set bits in KnownFrameFlags.
constexpr uint16_t FrameFlagStreaming = 0x1; ///< Hello: request Progress
constexpr uint16_t KnownFrameFlags = FrameFlagStreaming;

enum class FrameType : uint8_t {
  Hello = 1,    ///< client -> server: client name
  Welcome = 2,  ///< server -> client: negotiated version + server name
  Submit = 3,   ///< client -> server: one query (request id in header)
  Verdict = 4,  ///< server -> client: response for one request id
  Cancel = 5,   ///< client -> server: cancel the request id in the header
  Ping = 6,     ///< either direction: liveness probe
  Pong = 7,     ///< either direction: liveness reply
  Progress = 8, ///< server -> client (v2): heartbeat / partial verdict
};

struct Frame {
  uint8_t Version = ProtocolVersion;
  FrameType Type = FrameType::Ping;
  uint16_t Flags = 0; ///< must be 0 for v1; subset of KnownFrameFlags for v2
  uint64_t RequestId = 0;
  std::string Payload;
  /// crc32(Payload) as verified by decodeFrame/readFrame (encoders ignore
  /// it and checksum Payload themselves). The daemon continues it over its
  /// journal trailer instead of checksumming a Submit payload twice.
  uint32_t PayloadCrc = 0;
};

/// Serialises header + payload. The payload CRC is support/Crc32.h's.
std::string encodeFrame(const Frame &F);

enum class DecodeStatus : uint8_t {
  Ok,        ///< one frame decoded and consumed from the buffer
  NeedMore,  ///< the buffer holds a frame prefix; keep reading
  BadMagic,  ///< stream out of sync or not a tracesafed peer
  BadVersion,///< peer speaks a protocol revision outside [min, current]
  BadFlags,  ///< reserved/unknown flag bits set for the frame's version
  BadLength, ///< declared payload length exceeds MaxFramePayload
  BadCrc,    ///< payload bytes do not match their checksum
};

const char *decodeStatusName(DecodeStatus S);

/// Attempts to decode one frame from the front of \p Buf. On Ok the
/// frame's bytes are removed from \p Buf (pipelined frames behind it are
/// kept). Any Bad* status means the stream is unrecoverably corrupt: the
/// connection must be dropped, not resynchronised.
DecodeStatus decodeFrame(std::string &Buf, Frame &Out);

//===----------------------------------------------------------------------===//
// Query model
//===----------------------------------------------------------------------===//

enum class QueryKind : uint8_t {
  ProgramDrf = 1,   ///< is Program data race free?
  Behaviours = 2,   ///< enumerate Program's SC behaviours
  DrfGuarantee = 3, ///< DRF guarantee for (Program, Transformed)
  ThinAir = 4,      ///< out-of-thin-air guarantee for the pair
  RaceLog = 5,      ///< streaming HB race scan of a TSRL event log
  Campaign = 6,     ///< a batch of sub-queries scheduled as one unit
  Stats = 7,        ///< live ServerStats snapshot (daemon-only)
};

const char *queryKindName(QueryKind K);

/// Admission-scheduling class of a request. Interactive queries preempt
/// queued batch work at dispatch (aging keeps batch starvation-free).
enum class ClientClass : uint8_t {
  Interactive = 0,
  Batch = 1,
};

const char *clientClassName(ClientClass C);

struct QueryRequest {
  QueryKind Kind = QueryKind::ProgramDrf;
  /// .tsl source of the original program — except for RaceLog queries,
  /// where this carries the raw TSRL log image, and Campaign queries,
  /// where it carries the encoded sub-query list (encodeCampaign). The
  /// payload strings are length-prefixed and binary-safe end to end.
  std::string Program;
  std::string Transformed; ///< .tsl source of the pair queries' second leg
  /// Requested per-query budget; field-wise 0 = "whatever the server's
  /// quota ceiling allows". The server clamps every field to its ceiling.
  /// For Campaign queries the clamped result is the ceiling each
  /// sub-query's own request is clamped against.
  BudgetSpec Budget;
  /// v2 scheduling fields; v1 submits decode as (Interactive, 0).
  ClientClass Class = ClientClass::Interactive;
  uint8_t Priority = 0; ///< higher dispatches first within its class
};

enum class ResponseStatus : uint8_t {
  Ok = 1,         ///< the query ran; see the verdict fields
  Overloaded = 2, ///< shed by admission control; retry after backoff
  BadRequest = 3, ///< malformed payload or unparseable program
  Error = 4,      ///< transport-level failure injected by the client lib
};

const char *responseStatusName(ResponseStatus S);

struct QueryResponse {
  ResponseStatus Status = ResponseStatus::Error;
  VerdictKind Kind = VerdictKind::Unknown;
  TruncationReason Reason = TruncationReason::None;
  bool Degraded = false; ///< the sequential oracle fallback answered
  uint64_t Visited = 0;  ///< budget visits charged by the query
  std::string Detail;    ///< human-readable outcome / witness summary

  /// Canonical one-line rendering; the chaos test diffs these byte for
  /// byte between a resumed daemon run and a single-process run.
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Progress streaming (v2)
//===----------------------------------------------------------------------===//

enum class ProgressPhase : uint8_t {
  Queued = 1,  ///< admitted, waiting in a class queue
  Running = 2, ///< dispatched; Visited/SpentBytes are live heartbeats
  Partial = 3, ///< one campaign sub-query finished; Partial holds its
               ///< encoded QueryResponse and SubIndex its position
};

const char *progressPhaseName(ProgressPhase P);

/// One Progress frame's payload. Seq is per-request monotonic (gaps are
/// legal: advisory heartbeats may be shed under backpressure, partial
/// verdicts are never reordered).
struct ProgressUpdate {
  uint64_t Seq = 0;
  ProgressPhase Phase = ProgressPhase::Running;
  uint64_t Visited = 0;    ///< budget visits charged so far
  uint64_t SpentBytes = 0; ///< approximate memory charged so far
  uint64_t SubIndex = 0;   ///< Partial only: finished sub-query index
  std::string Partial;     ///< Partial only: encodeResponse() of the sub
};

std::string encodeProgress(const ProgressUpdate &U);
bool decodeProgress(const std::string &Payload, ProgressUpdate &U);

std::string encodeHello(const std::string &ClientName);
bool decodeHello(const std::string &Payload, std::string &ClientName);
/// Welcome carries the *negotiated* version: min(server, client hello).
std::string encodeWelcome(const std::string &ServerName,
                          uint64_t NegotiatedVersion = ProtocolVersion);
bool decodeWelcome(const std::string &Payload, std::string &ServerName,
                   uint64_t *NegotiatedVersion = nullptr);
/// \p Version selects the layout: v1 is the original six fields, v2
/// appends the class and priority bytes.
std::string encodeSubmit(const QueryRequest &Q,
                         uint8_t Version = ProtocolVersion);
bool decodeSubmit(std::string_view Payload, QueryRequest &Q,
                  uint8_t Version = ProtocolVersion);
std::string encodeResponse(const QueryResponse &R);
bool decodeResponse(std::string_view Payload, QueryResponse &R);

/// Campaign sub-query list, carried in QueryRequest::Program. Sub-queries
/// may be any single-query kind (no nested campaigns, no Stats).
std::string encodeCampaign(const std::vector<QueryRequest> &Subs);
bool decodeCampaign(const std::string &Payload,
                    std::vector<QueryRequest> &Subs);

/// Convenience: wraps \p Subs into one batch-class Campaign request.
QueryRequest makeCampaign(const std::vector<QueryRequest> &Subs,
                          const BudgetSpec &Budget = {},
                          uint8_t Priority = 0);

//===----------------------------------------------------------------------===//
// Blocking fd transport
//===----------------------------------------------------------------------===//

/// Transport-level failure: EOF mid-frame, a socket error, a corrupt
/// frame, a missed ping deadline, or an injected ProtoRead/ProtoWrite
/// fault. The client library maps these to reconnect-and-retry; the
/// server drops the connection.
struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes pre-encoded frame bytes, looping over partial writes with
/// MSG_NOSIGNAL (a died peer surfaces as an EPIPE ProtocolError, never a
/// SIGPIPE). Used by the per-connection writer threads on the server.
void writeBytes(int Fd, const std::string &Bytes);

/// Writes one frame (header and payload in one gathered write, the
/// payload not copied), looping over partial writes. Probes
/// FaultSite::ProtoWrite. Throws ProtocolError on failure.
void writeFrame(int Fd, const Frame &F);

/// Writes one Submit frame for \p Q: the same bytes as writeFrame of an
/// encodeSubmit(Q, Version) payload, but the payload is never assembled.
/// The header, the fixed fields and views of Q.Program and Q.Transformed
/// go out in one gathered write, so a MiB-sized query is not copied on
/// its way to the socket. Probes FaultSite::ProtoWrite once per frame.
/// Throws ProtocolError on failure.
void writeSubmit(int Fd, uint8_t Version, uint64_t RequestId,
                 const QueryRequest &Q);

/// Reads one frame into \p Out, buffering partial reads in \p Buf (the
/// caller keeps one buffer per connection). Once a header is in, the rest
/// of its payload is read straight into Out.Payload, sized once for the
/// frame, in reads that ask for all of it; a frame cut short by an error
/// leaves what arrived in \p Buf. Returns false on a clean EOF at a frame
/// boundary. Probes FaultSite::ProtoRead once per read(). Throws
/// ProtocolError on mid-frame EOF, socket errors, or corrupt frames.
bool readFrame(int Fd, std::string &Buf, Frame &Out);

enum class ReadStatus : uint8_t {
  Frame,   ///< one frame decoded into Out
  Eof,     ///< clean EOF at a frame boundary
  Timeout, ///< no bytes arrived within TimeoutMs
};

/// readFrame with a poll-based timeout, for liveness-aware read loops:
/// Timeout is returned whenever TimeoutMs elapses with no readable bytes
/// (the partial-frame buffer is kept, so the caller can simply call
/// again). Throws exactly like readFrame.
ReadStatus readFrameTimed(int Fd, std::string &Buf, Frame &Out,
                          int TimeoutMs);

} // namespace daemon
} // namespace tracesafe

#endif // TRACESAFE_DAEMON_PROTOCOL_H
