#include "daemon/Client.h"

#include "daemon/Transport.h"

#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

uint64_t xorshift(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

void daemon::setServerSpec(ClientOptions &O, const std::string &Spec) {
  if (looksLikeTcpSpec(Spec)) {
    O.Address = Spec;
    O.SocketPath.clear();
  } else {
    O.SocketPath = Spec;
    O.Address.clear();
  }
}

uint64_t daemon::backoffDelayMs(unsigned Attempt, uint64_t BaseMs,
                                uint64_t CapMs, uint64_t &Rng) {
  // Truncated exponential ceiling; shifting past 63 bits would wrap.
  uint64_t Ceil = CapMs;
  if (Attempt < 63) {
    uint64_t Exp = BaseMs << Attempt;
    if ((Exp >> Attempt) == BaseMs && Exp < CapMs)
      Ceil = Exp;
  }
  if (Ceil == 0)
    return 0;
  // Full jitter: uniform in [0, Ceil]. Thundering-herd avoidance matters
  // more than the exact distribution.
  return xorshift(Rng) % (Ceil + 1);
}

DaemonClient::DaemonClient(ClientOptions O)
    : Opts(std::move(O)), NextId(Opts.FirstRequestId),
      Rng(Opts.Seed ? Opts.Seed : 1) {}

DaemonClient::~DaemonClient() { disconnect(); }

void DaemonClient::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  ReadBuf.clear();
}

void DaemonClient::backoff(unsigned Attempt) {
  ++Counters.Retries;
  uint64_t Ms =
      backoffDelayMs(Attempt, Opts.BackoffBaseMs, Opts.BackoffCapMs, Rng);
  if (Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

void DaemonClient::ensureConnected() {
  if (Fd >= 0)
    return;
  std::string LastError = "no attempts made";
  for (unsigned Attempt = 0; Attempt < Opts.MaxAttempts; ++Attempt) {
    if (Attempt)
      backoff(Attempt - 1);
    int S = -1;
    ConnectOutcome Outcome = ConnectOutcome::Error;
    std::string Err;
    if (!Opts.Address.empty()) {
      std::string Host;
      uint16_t Port = 0;
      if (!parseHostPort(Opts.Address, Host, Port, Err))
        throw ProtocolError("bad address: " + Err);
      S = connectTcp(Host, Port, static_cast<int>(Opts.ConnectTimeoutMs),
                     Outcome, Err);
    } else {
      S = connectUnix(Opts.SocketPath, Outcome, Err);
    }
    if (S < 0) {
      // Refused (daemon down / not yet listening) and timed-out (black
      // hole) both retry through the same backoff, but are counted apart:
      // the distinction is how operators tell a crashed daemon from a
      // broken network.
      if (Outcome == ConnectOutcome::Refused)
        ++Counters.Refused;
      else if (Outcome == ConnectOutcome::TimedOut)
        ++Counters.ConnectTimeouts;
      LastError = Err;
      continue;
    }
    Fd = S;
    try {
      Frame Hello;
      Hello.Type = FrameType::Hello;
      if (Opts.Streaming)
        Hello.Flags = FrameFlagStreaming;
      Hello.Payload = encodeHello(Opts.Name);
      writeFrame(Fd, Hello);
      Frame Welcome;
      std::string ServerName;
      if (!readFrame(Fd, ReadBuf, Welcome) ||
          Welcome.Type != FrameType::Welcome ||
          !decodeWelcome(Welcome.Payload, ServerName))
        throw ProtocolError("bad welcome");
      ++Counters.Connects;
      return;
    } catch (const ProtocolError &E) {
      LastError = E.what();
      ++Counters.TransportErrors;
      disconnect();
    }
  }
  throw ProtocolError("connect retries exhausted: " + LastError);
}

bool DaemonClient::readFrameLive(Frame &Out) {
  if (Opts.PingIntervalMs == 0 || Opts.PingTimeoutMs == 0)
    return readFrame(Fd, ReadBuf, Out);
  // Liveness loop: poll in short slices; after PingIntervalMs of silence
  // send a Ping, and give the server PingTimeoutMs to produce *any*
  // frame (a Pong, a heartbeat, a verdict — all count as life) before
  // declaring it dead. A dead server thus costs bounded time per attempt
  // instead of an unbounded hang, and the regular reconnect/backoff/
  // replay machinery takes over.
  uint64_t LastActivity = nowMs();
  uint64_t PingAt = 0;
  for (;;) {
    switch (readFrameTimed(Fd, ReadBuf, Out, /*TimeoutMs=*/50)) {
    case ReadStatus::Frame:
      return true;
    case ReadStatus::Eof:
      return false;
    case ReadStatus::Timeout:
      break;
    }
    uint64_t Now = nowMs();
    if (PingAt) {
      if (Now - PingAt >= Opts.PingTimeoutMs)
        throw ProtocolError("ping deadline: server silent for " +
                            std::to_string(Now - LastActivity) + "ms");
      continue;
    }
    if (Now - LastActivity >= Opts.PingIntervalMs) {
      Frame P;
      P.Type = FrameType::Ping;
      writeFrame(Fd, P);
      ++Counters.PingsSent;
      PingAt = Now;
    }
  }
}

QueryResponse DaemonClient::call(const QueryRequest &Q) {
  std::vector<QueryResponse> R = callBatch(std::span(&Q, 1));
  return std::move(R.front());
}

std::vector<QueryResponse>
DaemonClient::callBatch(std::span<const QueryRequest> Qs) {
  // Ids are allocated once, up front and consecutively: every
  // retransmission below reuses them, which is what makes retries
  // idempotent on the server, and query I's id is FirstId + I.
  const uint64_t FirstId = NextId;
  NextId += Qs.size();

  std::vector<QueryResponse> Out(Qs.size());
  std::vector<bool> Done(Qs.size(), false);
  size_t Remaining = Qs.size();
  unsigned Attempt = 0;
  while (Remaining) {
    try {
      ensureConnected();
      // (Re)submit everything unanswered, pipelined, then collect. The
      // server answers replays instantly and recomputes nothing.
      for (size_t I = 0; I < Qs.size(); ++I) {
        if (Done[I])
          continue;
        writeSubmit(Fd, FirstId + I, Qs[I]);
      }
      while (Remaining) {
        Frame F;
        if (!readFrameLive(F))
          throw ProtocolError("server closed mid-batch");
        if (F.Type == FrameType::Ping) {
          // Server keepalive: answer promptly so a long blocked wait is
          // never reaped as a dead peer.
          Frame P;
          P.Type = FrameType::Pong;
          P.RequestId = F.RequestId;
          writeFrame(Fd, P);
          continue;
        }
        if (F.Type == FrameType::Pong) {
          ++Counters.Pongs;
          continue;
        }
        if (F.Type == FrameType::Progress) {
          ProgressUpdate U;
          if (!decodeProgress(F.Payload, U))
            throw ProtocolError("malformed progress payload");
          ++Counters.ProgressFrames;
          if (Opts.OnProgress)
            Opts.OnProgress(F.RequestId, U);
          continue;
        }
        if (F.Type != FrameType::Verdict)
          continue; // future frame types: ignore.
        // Unsigned wrap sends ids below FirstId out of range too.
        const uint64_t Slot = F.RequestId - FirstId;
        if (Slot >= Qs.size() || Done[Slot])
          continue; // foreign id, or a duplicate after a resubmission race
        QueryResponse R;
        if (!decodeResponse(F.Payload, R))
          throw ProtocolError("malformed verdict payload");
        if (R.Status == ResponseStatus::Overloaded &&
            Opts.RetryOverloaded) {
          // Deliberate shedding: back off, then resubmit just this id.
          ++Counters.OverloadedRetries;
          backoff(Attempt < 63 ? Attempt++ : Attempt);
          writeSubmit(Fd, F.RequestId, Qs[Slot]);
          continue;
        }
        Out[Slot] = std::move(R);
        Done[Slot] = true;
        --Remaining;
        Attempt = 0; // progress resets the backoff clock
      }
    } catch (const ProtocolError &) {
      ++Counters.TransportErrors;
      disconnect();
      if (++Attempt >= Opts.MaxAttempts)
        throw;
      backoff(Attempt - 1);
    }
  }
  return Out;
}

void DaemonClient::cancel(uint64_t RequestId) {
  if (Fd < 0)
    return;
  try {
    Frame F;
    F.Type = FrameType::Cancel;
    F.RequestId = RequestId;
    writeFrame(Fd, F);
  } catch (const ProtocolError &) {
    ++Counters.TransportErrors;
    disconnect();
  }
}
