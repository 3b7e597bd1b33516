//===----------------------------------------------------------------------===//
///
/// \file
/// Client library for the tracesafed daemon.
///
/// The client owns the retry story so callers get at-most-once *charging*
/// with at-least-once *delivery*:
///
///  - Request ids are allocated once per logical query and reused across
///    every retransmission. The server keys admissions on
///    (client name, request id), so a retry after a dropped connection
///    attaches to the in-flight computation or replays the stored verdict
///    — it never double-charges the admission quota.
///
///  - Transport errors (connect failure — refused and timed-out are
///    classified separately, torn frame, injected ProtoRead/ProtoWrite
///    fault, daemon restart) tear the connection down and retry after
///    truncated exponential backoff with deterministic jitter (seedable,
///    so tests replay the exact schedule).
///
///  - Overloaded verdicts are the server shedding load on purpose; with
///    RetryOverloaded (the default) they are retried through the same
///    backoff, otherwise surfaced to the caller.
///
///  - Liveness cuts both ways: the client pings an idle server and
///    treats a missed pong deadline as a transport error (reconnect and
///    retry), so a silently dead peer — a TCP black hole, a SIGSTOPped
///    daemon — surfaces as a retryable failure instead of a hang. It also
///    answers the server's keepalive pings, so a healthy blocked wait is
///    never reaped.
///
/// Speaks ProtocolVersion only and, when Streaming is on, consumes the
/// advisory Progress frames (heartbeats) via the OnProgress hook.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_DAEMON_CLIENT_H
#define TRACESAFE_DAEMON_CLIENT_H

#include "daemon/Protocol.h"

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace tracesafe {
namespace daemon {

struct ClientOptions {
  /// Unix-domain socket path of the daemon.
  std::string SocketPath;
  /// TCP address as "host:port"; takes precedence over SocketPath when
  /// non-empty. (Use setServerSpec to route a user-supplied string.)
  std::string Address;
  /// TCP connect timeout; a black-holed peer fails the attempt (and backs
  /// off) after this long instead of the kernel's SYN-retry minutes.
  /// 0 = blocking connect.
  unsigned ConnectTimeoutMs = 5000;
  /// Client identity; half of the idempotency key. Two clients sharing a
  /// name share replay state on the server, so make it unique per logical
  /// session.
  std::string Name = "client";
  /// Attempts per operation (connect, or one batch round-trip) before
  /// giving up. Each failure backs off before the next attempt.
  unsigned MaxAttempts = 8;
  /// Truncated exponential backoff: delay ~ U(0, min(Cap, Base * 2^n)).
  uint64_t BackoffBaseMs = 10;
  uint64_t BackoffCapMs = 1000;
  /// Jitter seed; fixed so tests can replay a schedule.
  uint64_t Seed = 1;
  /// Retry Overloaded responses (with backoff) instead of returning them.
  bool RetryOverloaded = true;
  /// First request id handed out; ids increment from here. A client that
  /// resumes an interrupted batch must reuse the original ids to hit the
  /// server's replay path.
  uint64_t FirstRequestId = 1;
  /// Ask the server for Progress frames (needs OnProgress to be
  /// observable, but the request itself is independent of the hook).
  bool Streaming = false;
  /// Client-side liveness (0 disables both): after PingIntervalMs of
  /// wire silence while waiting for verdicts, send a Ping; if the server
  /// stays silent for PingTimeoutMs after that, the connection is treated
  /// as dead — a retryable transport error, never a hang.
  uint64_t PingIntervalMs = 2000;
  uint64_t PingTimeoutMs = 2000;
  /// Observer for Progress frames (request id, decoded update). Called
  /// inline from the read loop; keep it cheap.
  std::function<void(uint64_t RequestId, const ProgressUpdate &U)>
      OnProgress;
};

/// Routes a user-supplied server spec: "host:port" (no slashes) becomes
/// O.Address, anything else O.SocketPath.
void setServerSpec(ClientOptions &O, const std::string &Spec);

/// Full jitter over a truncated exponential: delay is uniform in
/// [0, min(Cap, Base << Attempt)]. Pure so the unit test can pin the
/// schedule; \p Rng is any xorshift-style state word, advanced in place.
uint64_t backoffDelayMs(unsigned Attempt, uint64_t BaseMs, uint64_t CapMs,
                        uint64_t &Rng);

class DaemonClient {
public:
  struct Stats {
    uint64_t Connects = 0;          ///< successful connect+hello handshakes
    uint64_t Retries = 0;           ///< backoff sleeps taken
    uint64_t TransportErrors = 0;   ///< connections torn down on error
    uint64_t OverloadedRetries = 0; ///< Overloaded verdicts retried
    uint64_t Refused = 0;           ///< connects refused (daemon down)
    uint64_t ConnectTimeouts = 0;   ///< connects that hit the timeout
    uint64_t PingsSent = 0;         ///< liveness pings sent
    uint64_t Pongs = 0;             ///< liveness replies received
    uint64_t ProgressFrames = 0;    ///< Progress frames consumed
  };

  explicit DaemonClient(ClientOptions Opts);
  ~DaemonClient();

  DaemonClient(const DaemonClient &) = delete;
  DaemonClient &operator=(const DaemonClient &) = delete;

  /// Submits one query and blocks for its verdict, retrying through
  /// reconnects. Throws ProtocolError once MaxAttempts is exhausted.
  QueryResponse call(const QueryRequest &Q);

  /// Submits a batch pipelined on one connection and collects the
  /// verdicts (returned in submission order; the wire order may differ).
  /// On a transport error only the unanswered ids are resubmitted — the
  /// server's idempotency makes the resubmission safe and free.
  /// Each query's bytes go from its strings to the socket unassembled
  /// (writeSubmit), so \p Qs is only read.
  std::vector<QueryResponse> callBatch(std::span<const QueryRequest> Qs);

  /// Requests cancellation of a previously submitted request id.
  /// Best-effort: a dead connection is simply dropped (the daemon's
  /// per-request deadline still bounds the orphan).
  void cancel(uint64_t RequestId);

  /// Id that the next submitted query will use; exposed so callers can
  /// correlate cancel() targets.
  uint64_t nextRequestId() const { return NextId; }

  const Stats &stats() const { return Counters; }

private:
  void disconnect();
  /// Ensures a connected, greeted socket; retries with backoff. Throws
  /// ProtocolError when attempts are exhausted.
  void ensureConnected();
  void backoff(unsigned Attempt);
  /// Blocking read with the ping-deadline liveness loop layered on top.
  /// Throws ProtocolError when the server misses the pong deadline.
  bool readFrameLive(Frame &Out);

  ClientOptions Opts;
  int Fd = -1;
  std::string ReadBuf;
  uint64_t NextId;
  uint64_t Rng;
  Stats Counters;
};

} // namespace daemon
} // namespace tracesafe

#endif // TRACESAFE_DAEMON_CLIENT_H
