#include "support/RecordLog.h"

#include "support/Crc32.h"
#include "support/FieldCodec.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <unistd.h>

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

/// Writes all of \p Data to \p Fd; false on a write error.
bool writeAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    ssize_t N = ::write(Fd, Data.data(), Data.size());
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data.remove_prefix(static_cast<size_t>(N));
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
  putU32(Out, F.RecordMagic);
  putU32(Out, static_cast<uint32_t>(Head.size() + Tail.size()));
  putU32(Out, Crc);
  putU32(Out, 0);
  Out += Head;
  Out += Tail;
  return Out;
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
  if (!writeAll(Fd, Header)) {
    Err = Path + ": cannot write header: " + std::strerror(errno);
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool RecordLogWriter::append(std::string_view Payload) {
  if (Payload.size() > Format.MaxPayload)
    return false;
  return appendEncoded(encodeRecord(Format, Payload, {},
                                    crc32(Payload.data(), Payload.size())));
}

bool RecordLogWriter::appendEncoded(std::string_view Record) {
  std::lock_guard<std::mutex> Lock(M);
  return Fd >= 0 && writeAll(Fd, Record);
}

void RecordLogWriter::close() {
  std::lock_guard<std::mutex> Lock(M);
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}
