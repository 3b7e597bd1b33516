#include "daemon/Protocol.h"

#include "support/Crc32.h"
#include "support/Failure.h"

#include <array>
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

/// Writes every byte of \p Iov[0..N), looping over partial writes.
/// MSG_NOSIGNAL: a peer that died mid-frame must surface as an EPIPE
/// ProtocolError (client retries, server drops the connection) — never as
/// a process-killing SIGPIPE.
void writeVec(int Fd, iovec *Iov, size_t N) {
  while (N) {
    msghdr Msg{};
    Msg.msg_iov = Iov;
    Msg.msg_iovlen = N;
    ssize_t Sent = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (Sent < 0) {
      if (errno == EINTR)
        continue;
      throw ProtocolError(std::string("write: ") + std::strerror(errno));
    }
    size_t Left = static_cast<size_t>(Sent);
    while (N && Left >= Iov->iov_len) {
      Left -= Iov->iov_len;
      ++Iov;
      --N;
    }
    if (N) {
      Iov->iov_base = static_cast<char *>(Iov->iov_base) + Left;
      Iov->iov_len -= Left;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

namespace {

/// Appends the 24-byte header of \p F to \p Out. \p Len and \p Crc
/// describe the payload that follows, which need not be F.Payload: a
/// gathered write passes the length and CRC of its pieces.
void putHeader(std::string &Out, const Frame &F, size_t Len, uint32_t Crc) {
  putU32(Out, FrameMagic);
  Out.push_back(static_cast<char>(ProtocolVersion));
  Out.push_back(static_cast<char>(F.Type));
  putU16(Out, F.Flags);
  putU64(Out, F.RequestId);
  putU32(Out, static_cast<uint32_t>(Len));
  putU32(Out, Crc);
}

void putHeader(std::string &Out, const Frame &F) {
  putHeader(Out, F, F.Payload.size(),
            crc32(F.Payload.data(), F.Payload.size()));
}

/// Validates the header at \p P (FrameHeaderSize bytes) and extracts the
/// declared payload length.
DecodeStatus checkHeader(const unsigned char *P, uint32_t &Len) {
  if (getU32(P) != FrameMagic)
    return DecodeStatus::BadMagic;
  if (P[4] != ProtocolVersion)
    return DecodeStatus::BadVersion;
  if ((getU16(P + 6) & ~KnownFrameFlags) != 0)
    return DecodeStatus::BadFlags;
  Len = getU32(P + 16);
  if (Len > MaxFramePayload)
    return DecodeStatus::BadLength;
  return DecodeStatus::Ok;
}

/// Copies the header fields at \p P into \p Out (the payload aside).
void takeHeader(const unsigned char *P, Frame &Out) {
  Out.Type = static_cast<FrameType>(P[5]);
  Out.Flags = getU16(P + 6);
  Out.RequestId = getU64(P + 8);
}

} // namespace

std::string daemon::encodeFrame(const Frame &F) {
  std::string Out;
  Out.reserve(FrameHeaderSize + F.Payload.size());
  putHeader(Out, F);
  Out += F.Payload;
  return Out;
}

const char *daemon::decodeStatusName(DecodeStatus S) {
  switch (S) {
  case DecodeStatus::Ok:
    return "ok";
  case DecodeStatus::NeedMore:
    return "need-more";
  case DecodeStatus::BadMagic:
    return "bad-magic";
  case DecodeStatus::BadVersion:
    return "bad-version";
  case DecodeStatus::BadFlags:
    return "bad-flags";
  case DecodeStatus::BadLength:
    return "bad-length";
  case DecodeStatus::BadCrc:
    return "bad-crc";
  }
  return "invalid";
}

DecodeStatus daemon::decodeFrame(std::string &Buf, Frame &Out) {
  if (Buf.size() < FrameHeaderSize)
    return DecodeStatus::NeedMore;
  const auto *P = reinterpret_cast<const unsigned char *>(Buf.data());
  uint32_t Len = 0;
  if (DecodeStatus S = checkHeader(P, Len); S != DecodeStatus::Ok)
    return S;
  if (Buf.size() < FrameHeaderSize + Len)
    return DecodeStatus::NeedMore;
  uint32_t Crc = crc32(Buf.data() + FrameHeaderSize, Len);
  if (Crc != getU32(P + 20))
    return DecodeStatus::BadCrc;
  takeHeader(P, Out);
  Out.PayloadCrc = Crc;
  Out.Payload.assign(Buf, FrameHeaderSize, Len);
  Buf.erase(0, FrameHeaderSize + Len);
  return DecodeStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Query messages
//===----------------------------------------------------------------------===//

const char *daemon::queryKindName(QueryKind K) {
  switch (K) {
  case QueryKind::ProgramDrf:
    return "program-drf";
  case QueryKind::Behaviours:
    return "behaviours";
  case QueryKind::DrfGuarantee:
    return "drf-guarantee";
  case QueryKind::ThinAir:
    return "thin-air";
  case QueryKind::RaceLog:
    return "racelog";
  case QueryKind::Stats:
    return "stats";
  }
  return "invalid";
}

const char *daemon::clientClassName(ClientClass C) {
  switch (C) {
  case ClientClass::Interactive:
    return "interactive";
  case ClientClass::Batch:
    return "batch";
  }
  return "invalid";
}

const char *daemon::responseStatusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::Overloaded:
    return "overloaded";
  case ResponseStatus::BadRequest:
    return "bad-request";
  case ResponseStatus::Error:
    return "error";
  }
  return "invalid";
}

const char *daemon::progressPhaseName(ProgressPhase P) {
  switch (P) {
  case ProgressPhase::Queued:
    return "queued";
  case ProgressPhase::Running:
    return "running";
  }
  return "invalid";
}

std::string QueryResponse::str() const {
  std::string Out = responseStatusName(Status);
  Out += " ";
  Out += verdictKindName(Kind);
  Out += " ";
  Out += truncationReasonName(Reason);
  if (Degraded)
    Out += " degraded";
  Out += " visited=" + std::to_string(Visited);
  if (!Detail.empty())
    Out += " " + Detail;
  return Out;
}

std::string daemon::encodeHello(const std::string &ClientName) {
  std::string Out;
  putStr(Out, ClientName);
  return Out;
}

bool daemon::decodeHello(const std::string &Payload,
                         std::string &ClientName) {
  PayloadReader R(Payload);
  return R.str(ClientName) && R.done();
}

std::string daemon::encodeWelcome(const std::string &ServerName) {
  std::string Out;
  putU64(Out, ProtocolVersion);
  putStr(Out, ServerName);
  return Out;
}

bool daemon::decodeWelcome(const std::string &Payload,
                           std::string &ServerName) {
  PayloadReader R(Payload);
  uint64_t Version = 0;
  return R.u64(Version) && Version == ProtocolVersion && R.str(ServerName) &&
         R.done();
}

namespace {

/// Bytes of the fixed fields ahead of Program: kind, the three budget
/// fields and Program's length.
constexpr size_t SubmitPrefixSize = 1 + 3 * 8 + 4;
/// A Submit payload as the views it is laid out in; see submitPieces.
using SubmitPieces = std::array<std::string_view, 5>;

/// The Submit payload of \p Q in wire order, as five pieces: the fixed
/// prefix, Program, Transformed's length, Transformed, and the
/// class/priority suffix. The fixed fields are encoded
/// into \p Fixed; the other pieces view Q's strings, so Q and \p Fixed
/// must outlive the result. encodeSubmit concatenates the pieces and
/// writeSubmit gathers them, so both send the same bytes.
SubmitPieces submitPieces(const QueryRequest &Q, std::string &Fixed) {
  Fixed.clear();
  putU8(Fixed, static_cast<uint8_t>(Q.Kind));
  putU64(Fixed, static_cast<uint64_t>(Q.Budget.DeadlineMs));
  putU64(Fixed, Q.Budget.MaxVisited);
  putU64(Fixed, Q.Budget.MaxMemoryBytes);
  putU32(Fixed, static_cast<uint32_t>(Q.Program.size()));
  putU32(Fixed, static_cast<uint32_t>(Q.Transformed.size()));
  putU8(Fixed, static_cast<uint8_t>(Q.Class));
  putU8(Fixed, Q.Priority);
  std::string_view F = Fixed;
  return {F.substr(0, SubmitPrefixSize), Q.Program,
          F.substr(SubmitPrefixSize, 4), Q.Transformed,
          F.substr(SubmitPrefixSize + 4)};
}

} // namespace

std::string daemon::encodeSubmit(const QueryRequest &Q) {
  std::string Fixed;
  SubmitPieces Pieces = submitPieces(Q, Fixed);
  std::string Out;
  Out.reserve(Fixed.size() + Q.Program.size() + Q.Transformed.size());
  for (std::string_view P : Pieces)
    Out += P;
  return Out;
}

bool daemon::decodeSubmit(std::string_view Payload, QueryRequest &Q) {
  PayloadReader R(Payload);
  uint8_t Kind = 0, Class = 0, Priority = 0;
  uint64_t DeadlineMs = 0;
  if (!R.u8(Kind) || !R.u64(DeadlineMs) || !R.u64(Q.Budget.MaxVisited) ||
      !R.u64(Q.Budget.MaxMemoryBytes) || !R.str(Q.Program) ||
      !R.str(Q.Transformed) || !R.u8(Class) || !R.u8(Priority) || !R.done())
    return false;
  if (Kind < static_cast<uint8_t>(QueryKind::ProgramDrf) ||
      (Kind > static_cast<uint8_t>(QueryKind::RaceLog) &&
       Kind != static_cast<uint8_t>(QueryKind::Stats)))
    return false;
  if (Class > static_cast<uint8_t>(ClientClass::Batch))
    return false;
  Q.Kind = static_cast<QueryKind>(Kind);
  Q.Budget.DeadlineMs = static_cast<int64_t>(DeadlineMs);
  Q.Class = static_cast<ClientClass>(Class);
  Q.Priority = Priority;
  return true;
}

std::string daemon::encodeResponse(const QueryResponse &R) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(R.Status));
  putU8(Out, static_cast<uint8_t>(R.Kind));
  putU8(Out, static_cast<uint8_t>(R.Reason));
  putU8(Out, R.Degraded ? 1 : 0);
  putU64(Out, R.Visited);
  putStr(Out, R.Detail);
  return Out;
}

bool daemon::decodeResponse(std::string_view Payload, QueryResponse &R) {
  PayloadReader Rd(Payload);
  uint8_t Status = 0, Kind = 0, Reason = 0, Degraded = 0;
  if (!Rd.u8(Status) || !Rd.u8(Kind) || !Rd.u8(Reason) ||
      !Rd.u8(Degraded) || !Rd.u64(R.Visited) || !Rd.str(R.Detail) ||
      !Rd.done())
    return false;
  if (Status < static_cast<uint8_t>(ResponseStatus::Ok) ||
      Status > static_cast<uint8_t>(ResponseStatus::Error))
    return false;
  if (Kind > static_cast<uint8_t>(VerdictKind::Unknown) ||
      Reason > static_cast<uint8_t>(TruncationReason::EngineFault))
    return false;
  R.Status = static_cast<ResponseStatus>(Status);
  R.Kind = static_cast<VerdictKind>(Kind);
  R.Reason = static_cast<TruncationReason>(Reason);
  R.Degraded = Degraded != 0;
  return true;
}

//===----------------------------------------------------------------------===//
// Progress streaming
//===----------------------------------------------------------------------===//

std::string daemon::encodeProgress(const ProgressUpdate &U) {
  std::string Out;
  putU64(Out, U.Seq);
  putU8(Out, static_cast<uint8_t>(U.Phase));
  putU64(Out, U.Visited);
  putU64(Out, U.SpentBytes);
  return Out;
}

bool daemon::decodeProgress(const std::string &Payload, ProgressUpdate &U) {
  PayloadReader R(Payload);
  uint8_t Phase = 0;
  if (!R.u64(U.Seq) || !R.u8(Phase) || !R.u64(U.Visited) ||
      !R.u64(U.SpentBytes) || !R.done())
    return false;
  if (Phase < static_cast<uint8_t>(ProgressPhase::Queued) ||
      Phase > static_cast<uint8_t>(ProgressPhase::Running))
    return false;
  U.Phase = static_cast<ProgressPhase>(Phase);
  return true;
}

//===----------------------------------------------------------------------===//
// Blocking fd transport
//===----------------------------------------------------------------------===//

void daemon::writeBytes(int Fd, const std::string &Bytes) {
  iovec Iov{const_cast<char *>(Bytes.data()), Bytes.size()};
  writeVec(Fd, &Iov, 1);
}

void daemon::writeFrame(int Fd, const Frame &F) {
  if (faultPoint(FaultSite::ProtoWrite))
    throw ProtocolError("injected fault at proto-write");
  // Header and payload go out as one gathered write: a MiB-sized payload
  // is not copied into a contiguous frame first.
  std::string Header;
  Header.reserve(FrameHeaderSize);
  putHeader(Header, F);
  iovec Iov[2] = {{Header.data(), Header.size()},
                  {const_cast<char *>(F.Payload.data()), F.Payload.size()}};
  writeVec(Fd, Iov, 2);
}

void daemon::writeSubmit(int Fd, uint64_t RequestId,
                         const QueryRequest &Q) {
  if (faultPoint(FaultSite::ProtoWrite))
    throw ProtocolError("injected fault at proto-write");
  // The payload is never assembled: the header and the five pieces go out
  // in one gathered write, the CRC continued across the pieces.
  std::string Fixed;
  SubmitPieces Pieces = submitPieces(Q, Fixed);
  size_t Len = 0;
  uint32_t Crc = 0;
  for (std::string_view P : Pieces) {
    Len += P.size();
    Crc = crc32(P.data(), P.size(), Crc);
  }
  Frame Head;
  Head.Type = FrameType::Submit;
  Head.RequestId = RequestId;
  std::string Header;
  Header.reserve(FrameHeaderSize);
  putHeader(Header, Head, Len, Crc);
  iovec Iov[1 + std::tuple_size_v<SubmitPieces>];
  Iov[0] = {Header.data(), Header.size()};
  size_t N = 1;
  for (std::string_view P : Pieces)
    Iov[N++] = {const_cast<char *>(P.data()), P.size()};
  writeVec(Fd, Iov, N);
}

namespace {

/// Bytes asked of each read() while no complete header is buffered, so a
/// burst of small pipelined frames arrives in one call.
constexpr size_t HeaderReadChunk = 64 << 10;

/// One read() of up to \p Cap bytes into \p Dst, behind the ProtoRead
/// probe (one probe per read) and, for TimeoutMs >= 0, a poll. Returns
/// the byte count (0 at EOF), or -1 when the poll timed out.
ssize_t readSome(int Fd, char *Dst, size_t Cap, int TimeoutMs) {
  for (;;) {
    if (faultPoint(FaultSite::ProtoRead))
      throw ProtocolError("injected fault at proto-read");
    if (TimeoutMs >= 0) {
      pollfd Pfd{Fd, POLLIN, 0};
      int Ready = ::poll(&Pfd, 1, TimeoutMs);
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        throw ProtocolError(std::string("poll: ") + std::strerror(errno));
      }
      if (Ready == 0)
        return -1;
    }
    ssize_t N = ::read(Fd, Dst, Cap);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw ProtocolError(std::string("read: ") + std::strerror(errno));
    }
    return N;
  }
}

/// Finishes a frame whose header, and nothing past its payload, is in
/// \p Buf: the rest of the payload is read straight into Out.Payload,
/// sized once for the frame, each read() asking for everything still
/// missing. If the read stops early (timeout, EOF, error, injected
/// fault) the bytes received so far go back into \p Buf, so the next call
/// resumes where this one stopped.
ReadStatus readPayload(int Fd, std::string &Buf, Frame &Out,
                       int TimeoutMs) {
  unsigned char Header[FrameHeaderSize];
  std::memcpy(Header, Buf.data(), FrameHeaderSize);
  const uint32_t Len = getU32(Header + 16);
  Out.Payload.assign(Buf, FrameHeaderSize);
  Buf.clear();
  size_t Have = Out.Payload.size();
  Out.Payload.resize(Len);
  auto Stash = [&] {
    Buf.assign(reinterpret_cast<const char *>(Header), FrameHeaderSize);
    Buf.append(Out.Payload, 0, Have);
  };
  try {
    while (Have < Len) {
      ssize_t N = readSome(Fd, Out.Payload.data() + Have, Len - Have,
                           TimeoutMs);
      if (N < 0) {
        Stash();
        return ReadStatus::Timeout;
      }
      if (N == 0)
        throw ProtocolError("eof mid-frame");
      Have += static_cast<size_t>(N);
    }
  } catch (...) {
    Stash();
    throw;
  }
  uint32_t Crc = crc32(Out.Payload.data(), Len);
  if (Crc != getU32(Header + 20))
    throw ProtocolError(std::string("corrupt frame: ") +
                        decodeStatusName(DecodeStatus::BadCrc));
  takeHeader(Header, Out);
  Out.PayloadCrc = Crc;
  return ReadStatus::Frame;
}

/// readFrame and readFrameTimed; TimeoutMs < 0 blocks.
ReadStatus readFrameImpl(int Fd, std::string &Buf, Frame &Out,
                         int TimeoutMs) {
  for (;;) {
    DecodeStatus S = decodeFrame(Buf, Out);
    if (S == DecodeStatus::Ok)
      return ReadStatus::Frame;
    if (S != DecodeStatus::NeedMore)
      throw ProtocolError(std::string("corrupt frame: ") +
                          decodeStatusName(S));
    if (Buf.size() >= FrameHeaderSize)
      return readPayload(Fd, Buf, Out, TimeoutMs);
    char Tmp[HeaderReadChunk];
    ssize_t N = readSome(Fd, Tmp, sizeof(Tmp), TimeoutMs);
    if (N < 0)
      return ReadStatus::Timeout;
    if (N == 0) {
      if (Buf.empty())
        return ReadStatus::Eof; // clean EOF at a frame boundary
      throw ProtocolError("eof mid-frame");
    }
    Buf.append(Tmp, static_cast<size_t>(N));
  }
}

} // namespace

bool daemon::readFrame(int Fd, std::string &Buf, Frame &Out) {
  return readFrameImpl(Fd, Buf, Out, /*TimeoutMs=*/-1) == ReadStatus::Frame;
}

ReadStatus daemon::readFrameTimed(int Fd, std::string &Buf, Frame &Out,
                                  int TimeoutMs) {
  return readFrameImpl(Fd, Buf, Out, TimeoutMs);
}
