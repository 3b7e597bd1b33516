#include "support/RecordLog.h"

#include "support/Crc32.h"
#include "support/FieldCodec.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>
#include <vector>

using namespace tracesafe;

namespace {

/// The whole file at \p Path; a missing or unreadable file reads as empty.
std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    return {};
  std::string Out(static_cast<size_t>(In.tellg()), '\0');
  In.seekg(0);
  In.read(Out.data(), static_cast<std::streamsize>(Out.size()));
  Out.resize(static_cast<size_t>(In.gcount()));
  return Out;
}

/// Appends the 16-byte header of a \p Len-byte record with CRC \p Crc.
void putRecordHeader(std::string &Out, const RecordLogFormat &F, size_t Len,
                     uint32_t Crc) {
  putU32(Out, F.RecordMagic);
  putU32(Out, static_cast<uint32_t>(Len));
  putU32(Out, Crc);
  putU32(Out, 0);
}

/// Writes the \p Count buffers at \p Iov to \p Fd, resuming after a short
/// write and waiting out a descriptor that would block. Consumes \p Iov.
bool writeAllV(int Fd, iovec *Iov, int Count) {
  size_t Left = 0;
  for (int I = 0; I < Count; ++I)
    Left += Iov[I].iov_len;
  while (Left > 0) {
    ssize_t N = ::writev(Fd, Iov, Count);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK)
        return false;
      pollfd P{Fd, POLLOUT, 0};
      if (::poll(&P, 1, -1) < 0 && errno != EINTR)
        return false;
      continue;
    }
    if (N == 0)
      return false;
    Left -= static_cast<size_t>(N);
    for (size_t Done = static_cast<size_t>(N); Done > 0;) {
      size_t Step = std::min(Done, Iov->iov_len);
      Iov->iov_base = static_cast<char *>(Iov->iov_base) + Step;
      Iov->iov_len -= Step;
      Done -= Step;
      if (Iov->iov_len == 0) {
        ++Iov;
        --Count;
      }
    }
  }
  return true;
}

} // namespace

RecordScan tracesafe::scanRecords(std::string_view Data,
                                  const RecordLogFormat &F,
                                  const RecordVisitor &Visit) {
  RecordScan S;
  S.TotalBytes = Data.size();
  if (Data.empty())
    return S;
  const auto *D = reinterpret_cast<const unsigned char *>(Data.data());
  if (Data.size() < RecordLogHeaderSize) {
    S.HeaderOk = false;
    S.Error = std::string("short or missing ") + F.Name + " header";
    return S;
  }
  if (getU32(D) != F.FileMagic) {
    S.HeaderOk = false;
    S.Error = std::string("bad ") + F.Name + " magic";
    return S;
  }
  if (D[4] != F.Version) {
    S.HeaderOk = false;
    S.Error = std::string("unsupported ") + F.Name + " version " +
              std::to_string(D[4]);
    return S;
  }
  S.Epoch = getU64(D + 8);
  if (S.Epoch != F.Epoch) {
    S.Stale = true;
    return S;
  }
  size_t Off = RecordLogHeaderSize;
  while (Data.size() - Off >= RecordHeaderSize) {
    const unsigned char *H = D + Off;
    uint32_t Len = getU32(H + 4);
    if (getU32(H) != F.RecordMagic || Len > F.MaxPayload ||
        Len > Data.size() - Off - RecordHeaderSize)
      break;
    std::string_view Payload = Data.substr(Off + RecordHeaderSize, Len);
    if (crc32(Payload.data(), Len) != getU32(H + 8))
      break;
    ++S.Records;
    if (Visit)
      Visit(Payload);
    Off += RecordHeaderSize + Len;
  }
  S.ValidBytes = Off;
  return S;
}

RecordScan tracesafe::readRecordLog(const std::string &Path,
                                    const RecordLogFormat &F,
                                    const RecordVisitor &Visit) {
  return scanRecords(readFile(Path), F, Visit);
}

std::string tracesafe::encodeRecord(const RecordLogFormat &F,
                                    std::string_view Head,
                                    std::string_view Tail, uint32_t Crc) {
  std::string Out;
  Out.reserve(RecordHeaderSize + Head.size() + Tail.size());
  putRecordHeader(Out, F, Head.size() + Tail.size(), Crc);
  Out += Head;
  Out += Tail;
  return Out;
}

bool tracesafe::writeRecords(int Fd, const RecordLogFormat &F,
                             std::initializer_list<RecordPieces> Records) {
  std::string Headers;
  for (const RecordPieces &R : Records)
    putRecordHeader(Headers, F, R.Head.size() + R.Tail.size(), R.Crc);
  std::vector<iovec> Iov;
  Iov.reserve(3 * Records.size());
  char *Header = Headers.data();
  for (const RecordPieces &R : Records) {
    Iov.push_back({Header, RecordHeaderSize});
    Iov.push_back({const_cast<char *>(R.Head.data()), R.Head.size()});
    Iov.push_back({const_cast<char *>(R.Tail.data()), R.Tail.size()});
    Header += RecordHeaderSize;
  }
  return writeAllV(Fd, Iov.data(), static_cast<int>(Iov.size()));
}

bool RecordLogWriter::open(const std::string &Path, const RecordLogFormat &F,
                           Mode Md, std::string &Err,
                           const RecordVisitor &Visit) {
  close();
  std::lock_guard<std::mutex> Lock(M);
  Format = F;
  if (Md == Mode::Resume) {
    RecordScan S = scanRecords(readFile(Path), F, Visit);
    if (!S.HeaderOk) {
      Err = Path + ": " + S.Error;
      return false;
    }
    if (S.TotalBytes && !S.Stale) {
      Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
      // Appending after a torn tail or a corrupt record would hide every
      // later record from the valid-prefix reader forever.
      if (Fd >= 0 && S.torn() &&
          ::ftruncate(Fd, static_cast<off_t>(S.ValidBytes)) != 0) {
        Err = Path + ": cannot truncate after the valid prefix: " +
              std::strerror(errno);
        ::close(Fd);
        Fd = -1;
        return false;
      }
      if (Fd < 0) {
        Err = Path + ": cannot open for append: " + std::strerror(errno);
        return false;
      }
      return true;
    }
  }
  Fd = ::open(Path.c_str(),
              O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Err = Path + ": cannot create: " + std::strerror(errno);
    return false;
  }
  std::string Header;
  putU32(Header, F.FileMagic);
  putU8(Header, F.Version);
  Header.append(3, '\0');
  putU64(Header, F.Epoch);
  iovec Iov{Header.data(), Header.size()};
  if (!writeAllV(Fd, &Iov, 1)) {
    Err = Path + ": cannot write header: " + std::strerror(errno);
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool RecordLogWriter::append(std::string_view Payload) {
  return appendRecords({{Payload, {}, crc32(Payload.data(), Payload.size())}});
}

bool RecordLogWriter::appendRecords(
    std::initializer_list<RecordPieces> Records) {
  std::lock_guard<std::mutex> Lock(M);
  for (const RecordPieces &R : Records)
    if (R.Head.size() + R.Tail.size() > Format.MaxPayload)
      return false;
  return Fd >= 0 && writeRecords(Fd, Format, Records);
}

void RecordLogWriter::close() {
  std::lock_guard<std::mutex> Lock(M);
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}
