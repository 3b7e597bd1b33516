//===----------------------------------------------------------------------===//
///
/// \file
/// tracesafed: the long-lived verification daemon.
///
/// One process serves many clients over a unix-domain socket and/or a
/// TCP listener, keeping the process-global BehaviourCache warm across
/// queries (each engine run owns its intern pools). The robustness
/// contract, in order of importance:
///
///  - *Bounded admission.* Queries are admitted under a global in-flight
///    cap and a fair per-client share of it; a request over either limit
///    is answered immediately with a structured Overloaded response,
///    never queued unboundedly. A query the verdict cache already
///    answers is answered at admission, on its connection's reader
///    thread. Other admitted queries wait in per-class dispatch queues
///    (interactive before batch, priority-ordered, with aging so batch
///    work cannot starve). Each of the Workers threads takes the next
///    query from those queues and runs it to completion, under a Budget
///    clamped to the server's quota ceiling: one query, one thread.
///
///  - *Containment.* Every query catches everything; a faulted query
///    degrades to the seed oracle engines (computeVerdict) and at worst
///    reports Unknown(EngineFault). The workers, the listeners and the
///    other clients never observe the fault. The same isolation holds on
///    the write side: every connection's outbound traffic goes through a
///    bounded queue drained by a dedicated writer thread, so a stalled
///    reader sheds *its own* connection (the verdict stays journaled and
///    replayable) and never wedges a worker or starves other clients.
///
///  - *Durability.* With a journal configured, each admitted request is
///    appended (admission record) before it is scheduled and its verdict
///    (verdict record) when it completes, each written before the daemon
///    moves on. `--resume` replays the journal's valid prefix: completed
///    verdicts are served from the journal without recomputation (and
///    without re-charging any quota) and admitted-but-unfinished requests
///    are recomputed, so a `kill -9` mid-batch resumes to byte-identical
///    merged results. A corrupt record ends the replay there; nothing
///    after it is served. Replayed verdicts send no Progress frames — a
///    resumed stream is final-frames only.
///
///  - *Idempotency.* Requests are keyed (client name, request id): a
///    retransmitted Submit attaches to the in-flight computation or
///    replays the stored verdict instead of double-charging admission.
///    A completed request keeps only its encoded verdict bytes in memory;
///    its payload and request state are released as the verdict lands.
///
///  - *Liveness.* Every connection gets server-initiated keepalive pings
///    with a reply deadline; a peer that misses it is reaped, so dead TCP
///    peers cannot pin connection state forever.
///
/// Determinism note: the daemon parallelises *across* queries and every
/// engine runs sequentially, so any query under a wall-clock-free budget
/// produces the same verdict bytes in any run —
/// the property the chaos smoke test diffs, over both transports.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_DAEMON_SERVER_H
#define TRACESAFE_DAEMON_SERVER_H

#include "daemon/Protocol.h"
#include "support/Budget.h"
#include "support/RecordLog.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace tracesafe {
namespace daemon {

/// The --journal file: a support/RecordLog ("TSDJ" file, "TSDR" records).
/// Each record's payload is a body followed by a trailer:
///
///   body:    admission: the Submit frame's payload bytes as received
///            verdict:   encodeResponse() of the verdict
///   trailer: client name bytes | u32 name length | u64 request id
///            | u8 type ('A' admission, 'V' verdict)
///
/// The loader keeps the first admission per (client, request id) and
/// applies verdicts to it. Version 1 of the format carried a protocol
/// version byte before the type; RecordLog refuses such a file by its
/// header.
constexpr RecordLogFormat JournalFormat{"daemon journal", 0x4A445354, 2,
                                        0x52445354, 64u << 20};

struct ServerOptions {
  /// Unix-domain listener path; empty = no unix listener.
  std::string SocketPath;
  /// TCP listener as "host:port"; empty = no TCP listener. Port 0 binds
  /// an ephemeral port, reported through BoundTcpPort. At least one
  /// listener must be configured.
  std::string ListenAddress;
  /// When non-null, receives the TCP port actually bound (for tests and
  /// ephemeral-port runs) before the first accept.
  std::atomic<uint16_t> *BoundTcpPort = nullptr;
  /// Append-only journal for crash recovery; empty = no durability.
  /// Without Resume the file is started over.
  std::string JournalPath;
  /// Replay JournalPath on startup (serve completed verdicts, recompute
  /// orphaned admissions) and append to it. A file that is not a daemon
  /// journal is refused: runServer returns 1.
  bool Resume = false;
  /// Query worker threads, each running one query at a time; admitted
  /// queries beyond them wait in the class queues. 0 =
  /// std::thread::hardware_concurrency().
  unsigned Workers = 0;
  /// Global cap on admitted-but-unfinished queries; anything beyond is
  /// answered Overloaded.
  unsigned QueueCap = 64;
  /// Per-client cap on in-flight queries. 0 = fair share, i.e.
  /// max(1, QueueCap / connected clients).
  unsigned PerClientCap = 0;
  /// Aging threshold: after this many consecutive interactive dispatches
  /// while batch work is waiting, one batch query dispatches regardless —
  /// the starvation-freedom knob (deterministic, not wall-clock).
  unsigned AgingThreshold = 4;
  /// Byte cap on each connection's outbound frame queue. A connection
  /// whose peer stops reading sheds advisory Progress frames first and is
  /// dropped outright once a Verdict no longer fits — the slow-client
  /// shedding contract (docs/ROBUSTNESS.md).
  uint64_t OutboundCapBytes = 4ULL << 20;
  /// Keepalive, in 100ms listener ticks: a ping is sent after this many
  /// silent ticks. 0 disables keepalive.
  unsigned KeepaliveTicks = 100;
  /// Reply deadline after a keepalive ping, in ticks; a silent peer is
  /// reaped when it passes.
  unsigned PingTimeoutTicks = 50;
  /// Test knob: SO_SNDBUF applied to accepted sockets (0 = OS default).
  /// Shrinking it makes the kernel's send buffer fill quickly, so the
  /// slow-client-shedding path is exercisable without megabytes of
  /// traffic.
  unsigned SendBufBytes = 0;
  /// Field-wise ceiling clamped onto every requested budget (0 =
  /// unbounded field). The default keeps one rogue query from holding a
  /// worker for more than ~10 s.
  BudgetSpec QuotaCeiling{/*DeadlineMs=*/10'000, /*MaxVisited=*/2'000'000,
                          /*MaxMemoryBytes=*/256ULL << 20};
  /// Persistent warm-start cache (verify/CacheStore.h): the query-family
  /// verdict cache is loaded from this file on startup and every fresh
  /// verdict is spilled back, so a restarted daemon answers repeat
  /// queries warm. Empty = in-memory cache only.
  std::string CacheFile;
  /// Byte cap applied to the process-global BehaviourCache at startup.
  /// 0 = keep the cache's built-in default.
  uint64_t CacheCapBytes = 0;
  /// Cooperative shutdown: when requested, the listeners drain, in-flight
  /// queries are cancelled (their journal records stay orphaned, so a
  /// restart recomputes them), and runServer returns.
  const CancelToken *Stop = nullptr;
  /// Log one line per lifecycle event to stderr.
  bool Verbose = false;
};

/// Monotonic daemon counters, exposed for tests, the --verbose exit
/// summary, and the Stats query kind (live snapshot without log
/// scraping).
struct ServerStats {
  uint64_t Connections = 0;   ///< accepted sockets (both transports)
  uint64_t Admitted = 0;      ///< queries admitted (journal admissions)
  uint64_t Completed = 0;     ///< verdicts journaled (computed or answered at admission)
  uint64_t Overloaded = 0;    ///< requests shed by admission control
  uint64_t BadRequests = 0;   ///< malformed submits
  uint64_t Replayed = 0;      ///< verdicts served from memory or journal
  uint64_t Resumed = 0;       ///< orphaned admissions recomputed on resume
  uint64_t Degraded = 0;      ///< queries answered by the oracle fallback
  uint64_t ProtoErrors = 0;   ///< connections dropped on transport errors
  uint64_t AcceptFaults = 0;  ///< injected accept-site faults
  uint64_t Streamed = 0;      ///< Progress frames enqueued
  uint64_t SlowClientsShed = 0; ///< connections dropped on outbound overflow
  uint64_t Reaped = 0;        ///< connections reaped at the ping deadline
  uint64_t PingsSent = 0;     ///< server-initiated keepalive pings
  uint64_t AgedDispatches = 0;///< batch dispatches forced by aging
  uint64_t StatsQueries = 0;  ///< stats snapshots served
  uint64_t Coalesced = 0;     ///< admissions attached to an identical in-flight query
  uint64_t AnsweredAtAdmission = 0; ///< verdict-cache hits answered by the reader, never queued
  uint64_t PersistLoaded = 0; ///< verdicts warm-started from the cache file
  uint64_t PersistSpilled = 0;///< fresh verdicts appended to the cache file
};

/// Runs the daemon until Stop is requested (or the listeners fail
/// fatally). Returns 0 on clean shutdown, 1 on startup failure (bad
/// journal, EADDRINUSE, ...). \p Stats, when non-null, receives the
/// final counters.
int runServer(const ServerOptions &Options, ServerStats *Stats = nullptr);

/// Observation hooks threaded through evaluateQuery by the daemon's
/// streaming layer. All members optional.
struct EvalHooks {
  /// Live-progress mirrors handed to every Budget the query creates
  /// (published on the budget's slow path; see Budget::mirrorInto).
  std::atomic<uint64_t> *LiveVisited = nullptr;
  std::atomic<uint64_t> *LiveBytes = nullptr;
};

/// Evaluates one query exactly as the daemon does — budget clamp, the
/// canonical key and the verdict-cache probe (the daemon's happen at
/// admission), one parse on a miss, sequential engines, exception
/// containment and oracle degradation — shared by the standalone CLI
/// modes and the chaos test's single-process reference run. \p Ceiling is applied
/// field-wise; \p Cancel and \p Hooks may be null. Stats queries are
/// daemon-only and answered BadRequest here.
QueryResponse evaluateQuery(const QueryRequest &Q, const BudgetSpec &Ceiling,
                            const CancelToken *Cancel = nullptr,
                            const EvalHooks *Hooks = nullptr);

/// The field-wise clamp evaluateQuery applies: requested 0 means "use the
/// ceiling"; otherwise the smaller of the two (ceiling 0 = unbounded).
BudgetSpec clampBudget(const BudgetSpec &Requested,
                       const BudgetSpec &Ceiling);

} // namespace daemon
} // namespace tracesafe

#endif // TRACESAFE_DAEMON_SERVER_H
