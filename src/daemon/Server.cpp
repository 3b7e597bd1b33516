#include "daemon/Server.h"

#include "daemon/Transport.h"
#include "lang/Explore.h"
#include "lang/Parser.h"
#include "racelog/Detect.h"
#include "support/Crc32.h"
#include "support/Failure.h"
#include "trace/Enumerate.h"
#include "verify/BehaviourCache.h"
#include "verify/CacheStore.h"
#include "verify/Canonical.h"
#include "verify/Checks.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

//===----------------------------------------------------------------------===//
// Query evaluation (shared with the standalone CLI modes)
//===----------------------------------------------------------------------===//

BudgetSpec daemon::clampBudget(const BudgetSpec &Requested,
                               const BudgetSpec &Ceiling) {
  auto Clamp = [](uint64_t R, uint64_t C) {
    if (R == 0)
      return C;
    return C == 0 ? R : std::min(R, C);
  };
  BudgetSpec Out;
  Out.DeadlineMs = static_cast<int64_t>(
      Clamp(static_cast<uint64_t>(Requested.DeadlineMs),
            static_cast<uint64_t>(Ceiling.DeadlineMs)));
  Out.MaxVisited = Clamp(Requested.MaxVisited, Ceiling.MaxVisited);
  Out.MaxMemoryBytes =
      Clamp(Requested.MaxMemoryBytes, Ceiling.MaxMemoryBytes);
  return Out;
}

namespace {

VerdictKind outcomeVerdict(GuaranteeOutcome O) {
  switch (O) {
  case GuaranteeOutcome::Holds:
    return VerdictKind::Proved;
  case GuaranteeOutcome::Violated:
    return VerdictKind::Refuted;
  case GuaranteeOutcome::Unknown:
    break;
  }
  return VerdictKind::Unknown;
}

/// Deterministic (set-ordered) rendering of a behaviour set, capped so a
/// pathological program cannot blow up the response frame.
std::string renderBehaviours(const std::set<Behaviour> &S) {
  std::string Out = "behaviours=" + std::to_string(S.size());
  size_t Shown = 0;
  for (const Behaviour &B : S) {
    if (Shown++ == 32) {
      Out += " ...";
      break;
    }
    Out += " [";
    for (size_t I = 0; I < B.size(); ++I) {
      if (I)
        Out += ',';
      Out += std::to_string(B[I]);
    }
    Out += "]";
  }
  return Out;
}

/// Attaches the live-progress mirrors (if the caller installed any) to a
/// freshly created budget. The bases are added to every publication, for
/// the oracle-fallback budget that continues a primary one.
void wireMirrors(Budget &B, const EvalHooks *Hooks, uint64_t VisitedBase,
                 uint64_t BytesBase) {
  if (Hooks && (Hooks->LiveVisited || Hooks->LiveBytes))
    B.mirrorInto(Hooks->LiveVisited, VisitedBase, Hooks->LiveBytes,
                 BytesBase);
}

/// One attempt at a query. \p Oracle selects the seed std::set-memoised
/// enumerator for every kind (the degraded fallback path, sharing no code
/// with the interned reduced engines), so a fault in the primary path
/// cannot recur in the fallback; only the plain-DFS [[P]] build is common
/// to both. Every engine is sequential: the daemon parallelises across
/// queries.
QueryResponse runKind(QueryKind K, const Program &O, const Program *T2,
                      Budget &B, bool Oracle) {
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  switch (K) {
  case QueryKind::ProgramDrf:
  case QueryKind::Behaviours: {
    std::vector<Value> Domain = defaultDomainFor(O, 2);
    ExploreLimits XL;
    XL.Shared = &B;
    ExploreStats XS;
    Traceset TS = programTraceset(O, Domain, XL, &XS);
    if (XS.Truncated) {
      R.Kind = VerdictKind::Unknown;
      R.Reason = XS.Reason;
      return R;
    }
    EnumerationLimits EL;
    EL.Shared = &B;
    EL.ExhaustiveOracle = Oracle;
    if (K == QueryKind::ProgramDrf) {
      Verdict<Interleaving> V = checkDataRaceFreedom(TS, EL);
      R.Kind = V.Kind;
      R.Reason = V.Reason;
      R.Detail = V.isProved()    ? "data-race-free"
                 : V.isRefuted() ? "race"
                                 : "";
      return R;
    }
    EnumerationStats ES;
    std::set<Behaviour> S = collectBehaviours(TS, EL, &ES);
    if (ES.Truncated) {
      R.Kind = VerdictKind::Unknown;
      R.Reason = ES.Reason;
      return R;
    }
    R.Kind = VerdictKind::Proved;
    R.Detail = renderBehaviours(S);
    return R;
  }
  case QueryKind::DrfGuarantee: {
    ExecLimits E;
    E.Shared = &B;
    E.ExhaustiveOracle = Oracle;
    DrfGuaranteeReport Rep = checkDrfGuarantee(O, *T2, E);
    R.Kind = outcomeVerdict(Rep.outcome());
    if (R.Kind == VerdictKind::Unknown)
      R.Reason = Rep.Reason;
    R.Detail = std::string("orig-drf=") + (Rep.OriginalDrf ? "1" : "0") +
               " trans-drf=" + (Rep.TransformedDrf ? "1" : "0") +
               " preserved=" + (Rep.BehavioursPreserved ? "1" : "0");
    return R;
  }
  case QueryKind::ThinAir: {
    Value C = freshConstantFor(O);
    ExecLimits E;
    E.Shared = &B;
    E.ExhaustiveOracle = Oracle;
    ExploreLimits XL;
    XL.Shared = &B;
    ThinAirReport Rep = checkThinAir(O, *T2, C, E, XL);
    R.Kind = outcomeVerdict(Rep.outcome());
    if (R.Kind == VerdictKind::Unknown)
      R.Reason = Rep.Reason;
    R.Detail = "c=" + std::to_string(C) +
               " outputs=" + (Rep.TransformedOutputs ? "1" : "0") +
               " origin=" + (Rep.TransformedHasOrigin ? "1" : "0");
    return R;
  }
  default:
    break;
  }
  R.Status = ResponseStatus::BadRequest;
  R.Detail = "unknown query kind";
  return R;
}

/// RaceLog queries bypass the program pipeline entirely: Q.Program is a
/// TSRL log image, scanned by the streaming detector. Primary = the epoch
/// engine; the degraded fallback (EngineFault only, like every other
/// kind) is the full-vector-clock oracle engine.
QueryResponse runRaceLog(const std::string &Log, Budget &B, bool Oracle) {
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  racelog::RaceLogOptions O;
  O.Epochs = !Oracle;
  O.Shared = &B;
  racelog::RaceLogReport Rep = racelog::scanRaceLog(Log, O);
  if (!Rep.FormatOk) {
    R.Status = ResponseStatus::BadRequest;
    R.Detail = "bad log: " + Rep.FormatError;
    return R;
  }
  R.Kind = Rep.verdict();
  if (Rep.Stats.Truncated)
    R.Reason = Rep.Stats.Reason;
  R.Detail = Rep.str();
  return R;
}

bool needsPair(QueryKind K) {
  return K == QueryKind::DrfGuarantee || K == QueryKind::ThinAir;
}

/// The verdict-cache hit, or nullopt on a miss. Whole-query responses are
/// cached under the canonical key (alpha-renamed, thread-order-normalised
/// text plus the clamped budget class). A hit replays the recorded
/// visit/byte cost into a budget of class \p Spec first — warmth
/// invariance — so the response is byte-identical to what recomputation
/// under the same budget would have produced, including the exhausted
/// case. evaluateQuery and the daemon's admission-time answer both build
/// hits here, so their bytes agree by construction.
std::optional<QueryResponse> cachedVerdict(const std::string &Key,
                                           const BudgetSpec &Spec,
                                           const CancelToken *Cancel,
                                           const EvalHooks *Hooks) {
  Budget B(Spec, Cancel);
  wireMirrors(B, Hooks, 0, 0);
  std::optional<BehaviourCache::CachedQuery> Hit =
      BehaviourCache::global().queryFor(Key, &B);
  if (!Hit)
    return std::nullopt;
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  R.Kind = Hit->Kind;
  R.Reason = Hit->Reason;
  R.Detail = std::move(Hit->Detail);
  R.Visited = B.visited();
  return R;
}

/// Runs \p Attempt's primary engines (its `Oracle` argument false) under
/// \p B, a fresh budget of class \p Spec. Containment: anything thrown
/// is this query's problem only, an Unknown(EngineFault). That verdict,
/// and only that one (cancellation must win, and an exhausted budget
/// would exhaust the leftovers faster), degrades to the oracle engines
/// under whatever budget the primary left behind: Degraded, with the
/// visits of both attempts. A fallback that throws leaves the primary's
/// Unknown standing.
template <class AttemptFn>
QueryResponse runWithFallback(AttemptFn &&Attempt, Budget &B,
                              const BudgetSpec &Spec,
                              const CancelToken *Cancel,
                              const EvalHooks *Hooks) {
  QueryResponse R;
  try {
    R = Attempt(B, /*Oracle=*/false);
  } catch (...) {
    B.poison(TruncationReason::EngineFault);
    R = QueryResponse{};
    R.Status = ResponseStatus::Ok;
    R.Kind = VerdictKind::Unknown;
    R.Reason = TruncationReason::EngineFault;
  }
  R.Visited = B.visited();
  if (R.Status != ResponseStatus::Ok || R.Kind != VerdictKind::Unknown ||
      R.Reason != TruncationReason::EngineFault)
    return R;
  Budget B2(remainingBudget(Spec, B), Cancel);
  wireMirrors(B2, Hooks, B.visited(), B.chargedBytes());
  try {
    QueryResponse R2 = Attempt(B2, /*Oracle=*/true);
    R2.Degraded = true;
    R2.Visited = B.visited() + B2.visited();
    return R2;
  } catch (...) {
    R.Detail = "oracle fallback faulted";
    return R;
  }
}

/// Computes a parsed, memoisable query whose cache probe missed: the
/// primary engines, the oracle fallback, and the insertion of a complete
/// verdict under \p Key. It does not probe again. \p T2 is the
/// transformed program of a pair kind, null otherwise.
QueryResponse computeVerdict(QueryKind K, const Program &O, const Program *T2,
                             const std::string &Key, const BudgetSpec &Spec,
                             const CancelToken *Cancel,
                             const EvalHooks *Hooks) {
  Budget B(Spec, Cancel);
  wireMirrors(B, Hooks, 0, 0);
  QueryResponse R = runWithFallback(
      [&](Budget &Use, bool Oracle) { return runKind(K, O, T2, Use, Oracle); },
      B, Spec, Cancel, Hooks);
  // Complete primary-path verdicts only: truncated or degraded results
  // are artefacts of this run's budget/faults, not facts about the query.
  if (R.Status == ResponseStatus::Ok && R.Kind != VerdictKind::Unknown &&
      !R.Degraded && !B.exhausted()) {
    BehaviourCache::CachedQuery E;
    E.Kind = R.Kind;
    E.Reason = R.Reason;
    E.Detail = R.Detail;
    E.CostVisits = R.Visited;
    E.CostBytes = B.chargedBytes();
    BehaviourCache::global().insertQuery(Key, std::move(E));
  }
  return R;
}

/// A program query (kinds 1-4) whose probe under \p Key missed: parses
/// its program(s) once, for the engines, and computes. A program that
/// does not parse is a BadRequest naming its own line and column.
QueryResponse parseAndCompute(const QueryRequest &Q, const std::string &Key,
                              const BudgetSpec &Spec,
                              const CancelToken *Cancel,
                              const EvalHooks *Hooks) {
  QueryResponse Bad;
  Bad.Status = ResponseStatus::BadRequest;
  ParseResult O = parseProgram(Q.Program);
  if (!O) {
    Bad.Detail = "parse error (program): " + O.Error;
    return Bad;
  }
  ParseResult T;
  if (needsPair(Q.Kind)) {
    T = parseProgram(Q.Transformed);
    if (!T) {
      Bad.Detail = "parse error (transformed): " + T.Error;
      return Bad;
    }
  }
  return computeVerdict(Q.Kind, *O.Prog, T ? &*T.Prog : nullptr, Key, Spec,
                        Cancel, Hooks);
}

} // namespace

QueryResponse daemon::evaluateQuery(const QueryRequest &Q,
                                    const BudgetSpec &Ceiling,
                                    const CancelToken *Cancel,
                                    const EvalHooks *Hooks) {
  QueryResponse R;
  if (Q.Kind == QueryKind::Stats) {
    // Stats snapshots only make sense against a live server; the shared
    // evaluator has none.
    R.Status = ResponseStatus::BadRequest;
    R.Detail = "stats: daemon-only query";
    return R;
  }
  if (Q.Kind == QueryKind::RaceLog) {
    BudgetSpec Spec = clampBudget(Q.Budget, Ceiling);
    Budget B(Spec, Cancel);
    wireMirrors(B, Hooks, 0, 0);
    return runWithFallback(
        [&](Budget &Use, bool Oracle) {
          return runRaceLog(Q.Program, Use, Oracle);
        },
        B, Spec, Cancel, Hooks);
  }
  // Key, probe, and only on a miss parse: a query the cache answers is
  // never parsed. A program that does not parse never shares a key with
  // one that does (Canonical.h), so it always misses and gets its own
  // BadRequest.
  BudgetSpec Spec = clampBudget(Q.Budget, Ceiling);
  std::string Key = canonicalQueryKey(static_cast<uint8_t>(Q.Kind),
                                      Q.Program, Q.Transformed, Spec);
  if (std::optional<QueryResponse> Hit =
          cachedVerdict(Key, Spec, Cancel, Hooks))
    return *Hit;
  return parseAndCompute(Q, Key, Spec, Cancel, Hooks);
}

//===----------------------------------------------------------------------===//
// Journal: a support/RecordLog of admission and verdict records (layout in
// Server.h)
//===----------------------------------------------------------------------===//

namespace {

constexpr uint8_t AdmissionRecord = 'A';
constexpr uint8_t VerdictRecord = 'V';
/// Trailer bytes after the client name: u32 name length, u64 request id,
/// u8 record type.
constexpr size_t TrailerFixedSize = 13;

std::string requestKey(const std::string &Client, uint64_t Id) {
  return Client + '\0' + std::to_string(Id);
}

std::string journalTrailer(const std::string &Client, uint64_t Id,
                           uint8_t Type) {
  std::string Out;
  Out.reserve(Client.size() + TrailerFixedSize);
  Out += Client;
  putU32(Out, static_cast<uint32_t>(Client.size()));
  putU64(Out, Id);
  putU8(Out, Type);
  return Out;
}

/// One journal record split at its trailer: Body is the Submit payload
/// (admissions) or the encoded response (verdicts).
struct JournalRecord {
  std::string_view Body;
  std::string Client;
  uint64_t Id = 0;
  uint8_t Type = 0;
};

bool decodeJournalRecord(std::string_view Payload, JournalRecord &R) {
  if (Payload.size() < TrailerFixedSize)
    return false;
  const auto *T = reinterpret_cast<const unsigned char *>(Payload.data()) +
                  Payload.size() - TrailerFixedSize;
  uint32_t ClientLen = getU32(T);
  if (ClientLen > Payload.size() - TrailerFixedSize)
    return false;
  size_t BodyLen = Payload.size() - TrailerFixedSize - ClientLen;
  R.Body = Payload.substr(0, BodyLen);
  R.Client.assign(Payload.substr(BodyLen, ClientLen));
  R.Id = getU64(T + 4);
  R.Type = T[12];
  return true;
}

//===----------------------------------------------------------------------===//
// Connections: bounded outbound queue + dedicated writer thread
//===----------------------------------------------------------------------===//

/// Per-connection state. All writes go through enqueue(): workers and the
/// health tick never block on a peer's socket — a frame is written on the
/// spot only as far as the socket takes it without blocking, the writer
/// thread absorbs kernel-buffer stalls, the byte-bounded queue absorbs the
/// writer, and a peer that stalls past both loses *its own* connection
/// (advisory frames first, then the whole connection once a critical
/// frame no longer fits). Verdicts shed this way stay journaled and
/// replayable.
struct Connection {
  int Fd = -1;
  std::string Client; ///< set by Hello; guarded by the server mutex
  bool Streaming = false; ///< peer asked for Progress frames
  uint64_t OutboundCap = 4ULL << 20;
  std::atomic<bool> Open{true};
  /// Set by the reader as its last step: its thread can be joined.
  std::atomic<bool> ReaderDone{false};
  /// Health bookkeeping, in listener ticks. LastRecv is refreshed on
  /// every inbound frame; PingSent is nonzero while a keepalive ping
  /// awaits its reply.
  std::atomic<uint64_t> LastRecvTick{0};
  std::atomic<uint64_t> PingSentTick{0};

  std::mutex WriteM;
  std::condition_variable WriteCv;
  std::deque<std::string> Outbound;
  uint64_t OutboundBytes = 0;
  bool Closed = false;  ///< guarded by WriteM; sticky
  bool Writing = false; ///< guarded by WriteM: the writer has a frame out
  std::thread Writer;

  enum class Send : uint8_t {
    Ok,      ///< written, or queued for the writer
    Dropped, ///< advisory frame shed (queue full or connection closed)
    Shed,    ///< critical frame did not fit: connection shed *now*
  };

  void start() {
    Writer = std::thread([this] { writerLoop(); });
  }

  /// Must hold WriteM. The caller that receives Shed owns the
  /// SlowClientsShed accounting (exactly one caller observes the
  /// transition).
  Send enqueueLocked(std::string Bytes, bool Critical) {
    if (Closed)
      return Send::Dropped;
    // Nothing queued and nothing in flight: the caller writes the frame
    // itself, as far as the socket takes it without blocking, instead of
    // waking the writer. On a host whose cores are busy with queries the
    // writer may not run for milliseconds, and every reply — a verdict
    // answered on the reader thread above all — would wait that long.
    // Whatever the socket does not take is queued as usual.
    if (Outbound.empty() && !Writing) {
      size_t Sent = 0;
      if (!sendNowLocked(Bytes, Sent))
        return Send::Dropped;
      if (Sent == Bytes.size())
        return Send::Ok;
      Bytes.erase(0, Sent);
    }
    if (OutboundBytes + Bytes.size() > OutboundCap) {
      if (!Critical)
        return Send::Dropped;
      // Slow-client shedding: the peer has not drained a full queue of
      // frames and now a frame that must not be dropped doesn't fit.
      // Killing the connection (not blocking, not buffering unboundedly)
      // is the only option that protects the query workers.
      failLocked();
      return Send::Shed;
    }
    OutboundBytes += Bytes.size();
    Outbound.push_back(std::move(Bytes));
    WriteCv.notify_all();
    return Send::Ok;
  }

  /// Writes as much of \p Bytes as the socket takes without blocking,
  /// counting it in \p Sent. False when the connection failed; it is then
  /// closed, exactly as the writer closes it.
  bool sendNowLocked(const std::string &Bytes, size_t &Sent) {
    if (!faultPoint(FaultSite::ProtoWrite)) {
      while (Sent < Bytes.size()) {
        ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                           MSG_DONTWAIT | MSG_NOSIGNAL);
        if (N > 0)
          Sent += static_cast<size_t>(N);
        else if (N < 0 && errno == EINTR)
          continue;
        else if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          return true;
        else
          break;
      }
      if (Sent == Bytes.size())
        return true;
    }
    failLocked();
    return false;
  }

  /// The connection is given up (peer gone, write fault injected, or
  /// shed): every queued frame is undeliverable. Verdicts are journaled;
  /// the client's retry path replays them over a fresh connection.
  void failLocked() {
    Closed = true;
    Outbound.clear();
    OutboundBytes = 0;
    Open.store(false, std::memory_order_relaxed);
    ::shutdown(Fd, SHUT_RDWR);
    WriteCv.notify_all();
  }

  Send send(const Frame &F, bool Critical) {
    std::string Bytes = encodeFrame(F);
    std::lock_guard<std::mutex> Lock(WriteM);
    return enqueueLocked(std::move(Bytes), Critical);
  }

  /// Reader-side teardown: stop accepting frames and let the writer
  /// drain what's queued, then exit.
  void closeOutbound() {
    std::lock_guard<std::mutex> Lock(WriteM);
    Closed = true;
    WriteCv.notify_all();
  }

  void writerLoop() {
    std::unique_lock<std::mutex> Lock(WriteM);
    for (;;) {
      WriteCv.wait(Lock, [this] { return Closed || !Outbound.empty(); });
      if (Outbound.empty())
        return; // Closed and drained
      std::string Bytes = std::move(Outbound.front());
      Outbound.pop_front();
      OutboundBytes -= Bytes.size();
      Writing = true;
      Lock.unlock();
      try {
        if (faultPoint(FaultSite::ProtoWrite))
          throw ProtocolError("injected write fault");
        writeBytes(Fd, Bytes);
      } catch (...) {
        Lock.lock();
        Writing = false;
        failLocked();
        return;
      }
      Lock.lock();
      Writing = false;
    }
  }
};

using ConnPtr = std::shared_ptr<Connection>;

/// Transparent, so a string_view probes a table of strings as it is.
struct BytesHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
};

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

class Server {
public:
  Server(const ServerOptions &Opts, ServerStats &Stats)
      : Opts(Opts), Stats(Stats) {}

  int run();

private:
  /// A live request: admitted and not yet completed. Completion frees it
  /// and leaves only its verdict bytes in Answered.
  struct Request {
    std::string Client;
    uint64_t Id = 0;
    QueryRequest Q; ///< payload strings released at completion
    CancelToken Cancel;
    std::weak_ptr<Connection> Waiter;
    /// The waiter asked for streaming when the request was (re)attached.
    bool Streaming = false;
    /// Progress sequence numbers: assigned under the waiter's WriteM so
    /// wire order is monotonic per connection; atomic so a re-attached
    /// waiter continues the sequence instead of restarting it.
    std::atomic<uint64_t> NextSeq{0};
    /// Live budget mirrors, published by the query's budgets on their
    /// slow path and sampled by the heartbeat tick.
    std::atomic<uint64_t> LiveVisited{0};
    std::atomic<uint64_t> LiveBytes{0};
    uint64_t LastBeatVisited = 0; ///< health-tick thread only
    std::atomic<bool> RunningNow{false};
    /// Single-flight dedup (guarded by M). CanonKey is the canonical
    /// query key for the memoisable kinds (empty otherwise). A request
    /// admitted while an identical one is in flight becomes a *follower*:
    /// it is charged admission and journaled like any other, but never
    /// enqueued — the leader's verdict fans out to it on completion.
    /// Leader/Followers are mutually-owning shared_ptrs; both are cleared
    /// at completion (or shutdown-cancel) to break the cycle.
    std::string CanonKey;
    std::vector<std::shared_ptr<Request>> Followers; ///< leader side
    std::shared_ptr<Request> Leader;                 ///< follower side
  };
  using ReqPtr = std::shared_ptr<Request>;

  void log(const std::string &Msg) {
    if (Opts.Verbose)
      std::cerr << "[tracesafed] " << Msg << "\n";
  }

  unsigned perClientCapLocked() const {
    if (Opts.PerClientCap)
      return Opts.PerClientCap;
    size_t Clients = std::max<size_t>(1, Connected.size());
    return std::max<unsigned>(
        1, Opts.QueueCap / static_cast<unsigned>(Clients));
  }

  /// Completes (client, id) with the verdict \p Bytes (its
  /// encodeResponse): the live entry, if any, leaves Requests, the journal
  /// gets the verdict record and Answered keeps the bytes for replay.
  /// \p Admit, when given, is written in the same append, so an admission
  /// answered on the spot costs one write.
  void completeLocked(const std::string &Client, uint64_t Id,
                      const std::string &Bytes,
                      const RecordPieces *Admit = nullptr) {
    std::string Key = requestKey(Client, Id);
    Requests.erase(Key);
    if (Journal.isOpen()) {
      std::string Trailer = journalTrailer(Client, Id, VerdictRecord);
      RecordPieces Verdict{Bytes, Trailer,
                           crc32(Trailer.data(), Trailer.size(),
                                 crc32(Bytes.data(), Bytes.size()))};
      if (Admit)
        Journal.appendRecords({*Admit, Verdict});
      else
        Journal.appendRecords({Verdict});
    }
    answerLocked(std::move(Key), Bytes);
    ++Stats.Completed;
  }

  /// Records \p Bytes as the answer of request key \p Key. Alpha-variants
  /// of one query complete with equal bytes, so each distinct verdict is
  /// kept once and the table holds a pointer to it: a daemon life that
  /// serves hundreds of thousands of hits keeps a few dozen bytes for
  /// each, not a copy of its verdict.
  void answerLocked(std::string Key, std::string_view Bytes) {
    auto It = VerdictBytes.find(Bytes);
    if (It == VerdictBytes.end())
      It = VerdictBytes.emplace(Bytes).first;
    Answered.insert_or_assign(std::move(Key), &*It);
  }

  static uint64_t payloadBytes(const Request &R) {
    return R.Q.Program.size() + R.Q.Transformed.size();
  }

  /// A finished request's payload and key go as soon as it
  /// completes, not when the last reference to the Request drops:
  /// idempotent replay reads Answered, and --resume reads the journal
  /// file, not memory.
  void releasePayloadLocked(Request &R) {
    HeldPayloadBytes -= payloadBytes(R);
    std::string().swap(R.Q.Program);
    std::string().swap(R.Q.Transformed);
    std::string().swap(R.CanonKey);
  }

  //===--------------------------------------------------------------------===//
  // Progress streaming
  //===--------------------------------------------------------------------===//

  /// Critical send + slow-client-shed accounting (the enqueue reports
  /// the shed transition exactly once; the counter lives behind M).
  void sendCritical(const ConnPtr &C, const Frame &F) {
    if (C->send(F, /*Critical=*/true) == Connection::Send::Shed) {
      std::lock_guard<std::mutex> Lock(M);
      ++Stats.SlowClientsShed;
    }
  }

  /// Emits one advisory Progress frame to \p W for \p Req, if the
  /// connection asked for streaming; under backpressure it is shed first.
  /// Seq is assigned under the connection's write lock so sequence
  /// numbers are monotonic in wire order.
  /// \p Counters, when non-null, is the request whose live mirrors feed
  /// the frame — a coalesced follower streams its *leader's* counters
  /// (the only computation happening on its behalf) under its own Seq.
  void streamProgress(const ConnPtr &W, Request &Req, ProgressPhase Phase,
                      const Request *Counters = nullptr) {
    if (!W || !Req.Streaming || !W->Open.load(std::memory_order_relaxed))
      return;
    const Request &Src = Counters ? *Counters : Req;
    ProgressUpdate U;
    U.Phase = Phase;
    U.Visited = Src.LiveVisited.load(std::memory_order_relaxed);
    U.SpentBytes = Src.LiveBytes.load(std::memory_order_relaxed);
    Frame F;
    F.Type = FrameType::Progress;
    F.RequestId = Req.Id;
    Connection::Send Sent;
    {
      std::lock_guard<std::mutex> Lock(W->WriteM);
      U.Seq = Req.NextSeq.fetch_add(1, std::memory_order_relaxed) + 1;
      F.Payload = encodeProgress(U);
      Sent = W->enqueueLocked(encodeFrame(F), /*Critical=*/false);
    }
    if (Sent == Connection::Send::Ok) {
      std::lock_guard<std::mutex> Lock(M);
      ++Stats.Streamed;
    }
  }

  //===--------------------------------------------------------------------===//
  // Scheduling: class queues, priorities, aging
  //===--------------------------------------------------------------------===//

  std::deque<ReqPtr> &queueForLocked(const ReqPtr &Req) {
    return Req->Q.Class == ClientClass::Interactive ? PendInteractive
                                                    : PendBatch;
  }

  /// Inserts \p Req into its class queue: before the first lower-priority
  /// entry, i.e. priority-descending with FIFO arrival order inside one
  /// priority.
  void enqueuePendingLocked(const ReqPtr &Req) {
    std::deque<ReqPtr> &Q = queueForLocked(Req);
    auto It = std::find_if(Q.begin(), Q.end(), [&](const ReqPtr &R) {
      return R->Q.Priority < Req->Q.Priority;
    });
    Q.insert(It, Req);
  }

  /// One query worker: takes the next request from the class queues and
  /// runs it to completion on this thread, until shutdown. Interactive
  /// always preempts queued batch work, except that after AgingThreshold
  /// consecutive interactive dispatches with batch work waiting, one
  /// batch query dispatches regardless — a deterministic (counter-based,
  /// never wall-clock) starvation-freedom guarantee.
  void workerMain() {
    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      WorkCv.wait(Lock, [this] {
        return ShuttingDown || !PendInteractive.empty() || !PendBatch.empty();
      });
      if (ShuttingDown)
        return;
      bool PickBatch;
      if (PendInteractive.empty())
        PickBatch = true;
      else if (PendBatch.empty())
        PickBatch = false;
      else
        PickBatch = SinceBatch >= Opts.AgingThreshold;
      ReqPtr Req;
      if (PickBatch) {
        if (!PendInteractive.empty())
          ++Stats.AgedDispatches; // aging preempted a waiting interactive
        Req = PendBatch.front();
        PendBatch.pop_front();
        SinceBatch = 0;
      } else {
        Req = PendInteractive.front();
        PendInteractive.pop_front();
        SinceBatch = PendBatch.empty() ? 0 : SinceBatch + 1;
      }
      ++RunningCount;
      Dispatched.push_back(Req);
      Lock.unlock();
      runRequest(Req);
      Lock.lock();
    }
  }

  void runRequest(ReqPtr Req) {
    Req->RunningNow.store(true, std::memory_order_relaxed);
    {
      ConnPtr W;
      std::vector<std::pair<ConnPtr, ReqPtr>> FollowerWs;
      {
        std::lock_guard<std::mutex> Lock(M);
        W = Req->Waiter.lock();
        for (const ReqPtr &F : Req->Followers)
          if (ConnPtr FW = F->Waiter.lock())
            FollowerWs.emplace_back(std::move(FW), F);
      }
      streamProgress(W, *Req, ProgressPhase::Running);
      // Followers that coalesced while this leader was queued see the
      // same phase transition, with the leader's counters.
      for (auto &P : FollowerWs)
        streamProgress(P.first, *P.second, ProgressPhase::Running, Req.get());
    }
    EvalHooks Hooks;
    Hooks.LiveVisited = &Req->LiveVisited;
    Hooks.LiveBytes = &Req->LiveBytes;
    QueryResponse R;
    try {
      // A submitted memoisable query was keyed and probed at admission;
      // the worker parses it and does not probe again. Orphans recovered
      // by --resume carry no key and run the whole evaluator.
      if (!Req->CanonKey.empty()) {
        R = parseAndCompute(Req->Q, Req->CanonKey,
                            clampBudget(Req->Q.Budget, Opts.QuotaCeiling),
                            &Req->Cancel, &Hooks);
      } else {
        R = evaluateQuery(Req->Q, Opts.QuotaCeiling, &Req->Cancel, &Hooks);
      }
    } catch (...) {
      // evaluateQuery contains everything already; this is the last-ditch
      // belt so a bug in the containment cannot take down the worker.
      R = QueryResponse{};
      R.Status = ResponseStatus::Ok;
      R.Kind = VerdictKind::Unknown;
      R.Reason = TruncationReason::EngineFault;
    }
    Req->RunningNow.store(false, std::memory_order_relaxed);
    // Encoded once: the same bytes go to the journal, the wire and
    // Answered, for the leader and every follower.
    const std::string Bytes = encodeResponse(R);
    ConnPtr W;
    std::vector<std::pair<ConnPtr, ReqPtr>> FanOut;
    {
      std::lock_guard<std::mutex> Lock(M);
      W = Req->Waiter.lock();
      Dispatched.erase(std::find(Dispatched.begin(), Dispatched.end(), Req));
      // The single-flight slot frees as the verdict lands: a later
      // identical submit starts a fresh computation (normally a cache
      // hit) instead of chaining onto a completed leader.
      if (!Req->CanonKey.empty()) {
        auto InIt = InFlightByCanon.find(Req->CanonKey);
        if (InIt != InFlightByCanon.end() && InIt->second == Req)
          InFlightByCanon.erase(InIt);
      }
      std::vector<ReqPtr> Followers = std::move(Req->Followers);
      Req->Followers.clear();
      auto ReleaseLocked = [this](const ReqPtr &F) {
        --Inflight;
        auto It = ClientLoad.find(F->Client);
        if (It != ClientLoad.end() && --It->second == 0)
          ClientLoad.erase(It);
      };
      if (ShuttingDown && R.Reason == TruncationReason::Cancelled) {
        // Shutdown-cancelled: leave the admissions orphaned (no verdict
        // records, entries dropped) so a resumed daemon recomputes them
        // instead of serving Cancelled verdicts. Followers resume as
        // independent admissions — the single-flight table is rebuilt
        // per process, not persisted.
        Requests.erase(requestKey(Req->Client, Req->Id));
        for (const ReqPtr &F : Followers) {
          F->Leader.reset();
          Requests.erase(requestKey(F->Client, F->Id));
          releasePayloadLocked(*F);
          ReleaseLocked(F);
        }
      } else {
        if (R.Degraded)
          ++Stats.Degraded;
        completeLocked(Req->Client, Req->Id, Bytes);
        // Fan-out: every coalesced follower completes with the leader's
        // verdict bytes — journaled under its own (client, id) so a
        // retry or resume replays it like any other verdict. A
        // BadRequest is the exception: it names the leader's own parse
        // error position, so a follower spelled differently is queued to
        // be parsed on its own.
        for (const ReqPtr &F : Followers) {
          F->Leader.reset();
          if (R.Status == ResponseStatus::BadRequest &&
              (F->Q.Program != Req->Q.Program ||
               F->Q.Transformed != Req->Q.Transformed)) {
            enqueuePendingLocked(F);
            continue;
          }
          completeLocked(F->Client, F->Id, Bytes);
          releasePayloadLocked(*F);
          ReleaseLocked(F);
          if (ConnPtr FW = F->Waiter.lock())
            FanOut.emplace_back(std::move(FW), F);
        }
      }
      releasePayloadLocked(*Req);
      ReleaseLocked(Req);
      --RunningCount;
    }
    auto SendVerdict = [&](const ConnPtr &To, uint64_t Id) {
      if (!To || !To->Open.load(std::memory_order_relaxed))
        return;
      Frame Out;
      Out.Type = FrameType::Verdict;
      Out.RequestId = Id;
      Out.Payload = Bytes;
      sendCritical(To, Out);
    };
    SendVerdict(W, Req->Id);
    for (auto &F : FanOut)
      SendVerdict(F.first, F.second->Id);
  }

  /// Renders a live counters snapshot for the Stats query kind. One
  /// space-separated k=v line: greppable, diffable, no log scraping.
  std::string statsDetailLocked() const {
    auto KV = [](const char *K, uint64_t V) {
      return std::string(K) + "=" + std::to_string(V) + " ";
    };
    std::string Out;
    Out += KV("connections", Stats.Connections);
    Out += KV("open", Conns.size());
    Out += KV("admitted", Stats.Admitted);
    Out += KV("completed", Stats.Completed);
    Out += KV("in-flight", Inflight);
    Out += KV("payload-bytes", HeldPayloadBytes);
    Out += KV("running", RunningCount);
    Out += KV("pend-interactive", PendInteractive.size());
    Out += KV("pend-batch", PendBatch.size());
    Out += KV("overloaded", Stats.Overloaded);
    Out += KV("bad-requests", Stats.BadRequests);
    Out += KV("replayed", Stats.Replayed);
    Out += KV("resumed", Stats.Resumed);
    Out += KV("degraded", Stats.Degraded);
    Out += KV("proto-errors", Stats.ProtoErrors);
    Out += KV("streamed", Stats.Streamed);
    Out += KV("shed-slow", Stats.SlowClientsShed);
    Out += KV("reaped", Stats.Reaped);
    Out += KV("pings-sent", Stats.PingsSent);
    Out += KV("aged-dispatches", Stats.AgedDispatches);
    Out += KV("stats-queries", Stats.StatsQueries + 1); // incl. this one
    // Memoisation plane. "coalesced" admissions attached to an in-flight
    // identical query (computed once, charged per admission); "replayed"
    // above is the retry path — a verdict already computed for the *same*
    // (client, id). The cache-* keys snapshot the process-global
    // BehaviourCache (M -> cache lock; no path takes them in the other
    // order).
    Out += KV("coalesced", Stats.Coalesced);
    Out += KV("answered-at-admission", Stats.AnsweredAtAdmission);
    BehaviourCache::CacheStats CS = BehaviourCache::global().stats();
    Out += KV("cache-hits", CS.QueryHits);
    Out += KV("cache-misses", CS.QueryMisses);
    Out += KV("cache-query-hits", CS.QueryHits);
    Out += KV("cache-query-misses", CS.QueryMisses);
    Out += KV("cache-bytes", CS.Bytes);
    Out += KV("cache-evictions", CS.Evictions);
    Out += KV("persist-loaded", Stats.PersistLoaded);
    Out += KV("persist-spilled", Stats.PersistSpilled);
    Out.pop_back();
    return Out;
  }

  void handleSubmit(const ConnPtr &C, const Frame &F) {
    if (C->Client.empty())
      throw ProtocolError("submit before hello");
    Frame Out;
    Out.Type = FrameType::Verdict;
    Out.RequestId = F.RequestId;
    QueryRequest Q;
    if (!decodeSubmit(F.Payload, Q)) {
      QueryResponse R;
      R.Status = ResponseStatus::BadRequest;
      R.Detail = "malformed submit payload";
      {
        std::lock_guard<std::mutex> Lock(M);
        ++Stats.BadRequests;
      }
      Out.Payload = encodeResponse(R);
      sendCritical(C, Out);
      return;
    }
    if (Q.Kind == QueryKind::Stats) {
      // Stats is answered inline from the admission lock: never admitted,
      // journaled, or replayed — a snapshot is meaningless to resume.
      QueryResponse R;
      R.Status = ResponseStatus::Ok;
      R.Kind = VerdictKind::Proved;
      {
        std::lock_guard<std::mutex> Lock(M);
        R.Detail = statsDetailLocked();
        ++Stats.StatsQueries;
      }
      Out.Payload = encodeResponse(R);
      sendCritical(C, Out);
      return;
    }
    // Key memoisable kinds before taking the admission lock: the key
    // builder walks the whole token stream and must not serialise
    // submits. The key is the cache key probed below and the
    // single-flight identity. Nothing is parsed here: a hit never is,
    // and a miss is parsed by its worker.
    const BudgetSpec Spec = clampBudget(Q.Budget, Opts.QuotaCeiling);
    std::string CanonKey;
    if (Q.Kind >= QueryKind::ProgramDrf && Q.Kind <= QueryKind::ThinAir)
      CanonKey = canonicalQueryKey(static_cast<uint8_t>(Q.Kind), Q.Program,
                                   Q.Transformed, Spec);
    // The admission record is prepared here too: the Submit payload
    // exactly as it arrived plus a trailer. Its CRC continues the frame's
    // already verified payload CRC over the trailer, so a MiB-sized
    // payload is neither checksummed again nor copied: under M the record
    // is gathered from F.Payload straight into the journal write (and
    // dropped unused if the submit is a replay or is shed).
    std::string AdmitTrailer;
    RecordPieces Admit;
    if (Journal.isOpen()) {
      AdmitTrailer = journalTrailer(C->Client, F.RequestId, AdmissionRecord);
      Admit = {F.Payload, AdmitTrailer,
               crc32(AdmitTrailer.data(), AdmitTrailer.size(),
                     F.PayloadCrc)};
    }
    ReqPtr Fresh;
    {
      std::lock_guard<std::mutex> Lock(M);
      std::string Key = requestKey(C->Client, F.RequestId);
      auto Live = Requests.find(Key);
      if (Live != Requests.end()) {
        // Idempotent retry of an in-flight request: re-target it at this
        // connection, without consuming admission quota again.
        Live->second->Waiter = C;
        Live->second->Streaming = C->Streaming;
        return;
      }
      auto Done = Answered.find(Key);
      if (Done != Answered.end()) {
        // Idempotent retry of a completed request: replay its verdict
        // bytes. No Progress streams — the work already happened.
        ++Stats.Replayed;
        Out.Payload = *Done->second;
      } else if (ShuttingDown || faultPoint(FaultSite::Admission) ||
                 Inflight >= Opts.QueueCap ||
                 ClientLoad[C->Client] >= perClientCapLocked()) {
        // Bounded admission: shed instead of queueing unboundedly. The
        // Admission fault site makes spurious shedding injectable — a
        // correct client treats Overloaded as retry-after-backoff.
        ++Stats.Overloaded;
        QueryResponse R;
        R.Status = ResponseStatus::Overloaded;
        R.Detail = ShuttingDown ? "shutting down" : "queue full";
        Out.Payload = encodeResponse(R);
      } else {
        // Single-flight: an admission canonically identical to one
        // already in flight rides it instead of queueing — charged and
        // journaled like any admission (so quotas and resume semantics
        // are unchanged), but computed once. Cancelling a follower is a
        // no-op; cancelling the leader cancels the whole flight.
        ReqPtr Leader;
        if (!CanonKey.empty()) {
          auto InIt = InFlightByCanon.find(CanonKey);
          if (InIt != InFlightByCanon.end())
            Leader = InIt->second;
        }
        // Otherwise the one cache probe this admission gets. A hit is
        // answered here, on the reader thread: journaled, counted as
        // admitted and completed, and never queued or dispatched.
        std::optional<QueryResponse> Hit;
        if (!Leader && !CanonKey.empty())
          Hit = cachedVerdict(CanonKey, Spec, nullptr, nullptr);
        ++Stats.Admitted;
        if (Hit) {
          ++Stats.AnsweredAtAdmission;
          Out.Payload = encodeResponse(*Hit);
          completeLocked(C->Client, F.RequestId, Out.Payload, &Admit);
        } else {
          auto Req = std::make_shared<Request>();
          Req->Client = C->Client;
          Req->Id = F.RequestId;
          Req->Q = std::move(Q);
          Req->Waiter = C;
          Req->Streaming = C->Streaming;
          Req->CanonKey = std::move(CanonKey);
          Requests.emplace(std::move(Key), Req);
          ++Inflight;
          ++ClientLoad[C->Client];
          HeldPayloadBytes += payloadBytes(*Req);
          if (Journal.isOpen())
            Journal.appendRecords({Admit});
          if (Leader) {
            Req->Leader = Leader;
            Leader->Followers.push_back(Req);
            ++Stats.Coalesced;
          } else {
            if (!Req->CanonKey.empty())
              InFlightByCanon[Req->CanonKey] = Req;
            enqueuePendingLocked(Req);
          }
          Fresh = Req;
        }
      }
    }
    if (!Out.Payload.empty())
      sendCritical(C, Out);
    if (Fresh) {
      // Queued goes out before a worker is woken so a streaming
      // consumer normally sees Queued -> Running -> ... (Seq stays
      // monotonic either way — it is assigned under the write lock).
      streamProgress(C, *Fresh, ProgressPhase::Queued);
      WorkCv.notify_one();
    }
  }

  void handleCancel(const ConnPtr &C, const Frame &F) {
    if (C->Client.empty())
      throw ProtocolError("cancel before hello");
    std::lock_guard<std::mutex> Lock(M);
    auto It = Requests.find(requestKey(C->Client, F.RequestId));
    if (It != Requests.end())
      It->second->Cancel.request();
  }

  //===--------------------------------------------------------------------===//
  // Connection health: keepalive, reaping, heartbeats
  //===--------------------------------------------------------------------===//

  void reapLocked(const ConnPtr &C, const char *Why) {
    C->Open.store(false, std::memory_order_relaxed);
    ::shutdown(C->Fd, SHUT_RDWR); // reader unblocks and tears down
    ++Stats.Reaped;
    if (Opts.Verbose)
      std::cerr << "[tracesafed] reaping connection ("
                << (C->Client.empty() ? "pre-hello" : C->Client)
                << "): " << Why << "\n";
  }

  /// One ~100ms health pass, run from the accept loop. Everything here
  /// is counter-based: keepalive in ticks, heartbeats on visit-count
  /// change — no per-connection wall clocks.
  void healthTick() {
    uint64_t Now = Tick.fetch_add(1, std::memory_order_relaxed) + 1;
    std::vector<std::tuple<ConnPtr, ReqPtr, ReqPtr>> Beats;
    {
      std::lock_guard<std::mutex> Lock(M);
      // Keepalive: every peer answers pings, so one that stays silent past
      // the reply deadline is dead and is reaped.
      for (const ConnPtr &C : Conns) {
        if (!Opts.KeepaliveTicks || !C->Open.load(std::memory_order_relaxed))
          continue;
        uint64_t PingAt = C->PingSentTick.load(std::memory_order_relaxed);
        if (PingAt) {
          if (Now > PingAt && Now - PingAt >= Opts.PingTimeoutTicks)
            reapLocked(C, "ping deadline");
          continue;
        }
        uint64_t Last = C->LastRecvTick.load(std::memory_order_relaxed);
        if (Now > Last && Now - Last >= Opts.KeepaliveTicks) {
          Frame P;
          P.Type = FrameType::Ping;
          if (C->send(P, /*Critical=*/false) == Connection::Send::Ok) {
            C->PingSentTick.store(Now, std::memory_order_relaxed);
            ++Stats.PingsSent;
          }
        }
      }
      // Heartbeats: one Running update per streaming request whose visit
      // counter moved since the last tick. Only dispatched requests and
      // the followers coalesced onto them can beat, so the walk covers
      // those and never the idempotency tables, whose Answered half grows
      // for the life of the process. A follower beats on its *leader's* counters — the
      // computation running on its behalf.
      auto Beat = [&](const ReqPtr &Req, const ReqPtr &Src) {
        if (!Src->RunningNow.load(std::memory_order_relaxed) ||
            !Req->Streaming)
          return;
        uint64_t V = Src->LiveVisited.load(std::memory_order_relaxed);
        if (V == Req->LastBeatVisited)
          return;
        Req->LastBeatVisited = V;
        if (ConnPtr W = Req->Waiter.lock())
          Beats.emplace_back(std::move(W), Req, Src);
      };
      for (const ReqPtr &Leader : Dispatched) {
        Beat(Leader, Leader);
        for (const ReqPtr &F : Leader->Followers)
          Beat(F, Leader);
      }
    }
    for (auto &B : Beats)
      streamProgress(std::get<0>(B), *std::get<1>(B), ProgressPhase::Running,
                     std::get<2>(B).get());
  }

  //===--------------------------------------------------------------------===//
  // Connection serving
  //===--------------------------------------------------------------------===//

  void serveConnection(ConnPtr C) {
    std::string Buf;
    try {
      Frame F;
      while (readFrame(C->Fd, Buf, F)) {
        C->LastRecvTick.store(Tick.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
        C->PingSentTick.store(0, std::memory_order_relaxed);
        switch (F.Type) {
        case FrameType::Hello: {
          std::string Name;
          if (!decodeHello(F.Payload, Name) || Name.empty())
            throw ProtocolError("malformed hello");
          // decodeFrame already refused every version but ProtocolVersion.
          bool WantStream = (F.Flags & FrameFlagStreaming) != 0;
          {
            std::lock_guard<std::mutex> Lock(M);
            C->Client = Name;
            C->Streaming = WantStream;
            ++Connected[Name];
          }
          Frame W;
          W.Type = FrameType::Welcome;
          W.Flags = WantStream ? FrameFlagStreaming : 0;
          W.Payload = encodeWelcome("tracesafed");
          C->send(W, /*Critical=*/true);
          break;
        }
        case FrameType::Submit:
          handleSubmit(C, F);
          break;
        case FrameType::Cancel:
          handleCancel(C, F);
          break;
        case FrameType::Ping: {
          Frame P;
          P.Type = FrameType::Pong;
          P.RequestId = F.RequestId;
          C->send(P, /*Critical=*/true);
          break;
        }
        case FrameType::Pong:
          // Keepalive reply: LastRecvTick/PingSentTick already updated.
          break;
        default:
          throw ProtocolError("unexpected frame type");
        }
      }
    } catch (const std::exception &E) {
      std::lock_guard<std::mutex> Lock(M);
      ++Stats.ProtoErrors;
      if (Opts.Verbose)
        std::cerr << "[tracesafed] connection dropped: " << E.what()
                  << "\n";
    }
    // Teardown order matters: mark closed and shut the socket down (so a
    // writer blocked in send() fails out), let the writer drain/exit and
    // join it, unregister, and only then close the fd — nothing can
    // touch a reused descriptor.
    C->Open.store(false, std::memory_order_relaxed);
    ::shutdown(C->Fd, SHUT_RDWR);
    C->closeOutbound();
    if (C->Writer.joinable())
      C->Writer.join();
    {
      std::lock_guard<std::mutex> Lock(M);
      if (!C->Client.empty()) {
        auto It = Connected.find(C->Client);
        if (It != Connected.end() && --It->second == 0)
          Connected.erase(It);
      }
      Conns.erase(std::remove(Conns.begin(), Conns.end(), C),
                  Conns.end());
    }
    ::close(C->Fd);
    C->ReaderDone.store(true, std::memory_order_release);
  }

  const ServerOptions &Opts;
  ServerStats &Stats;
  std::mutex M;
  /// The idempotency table, keyed by requestKey: live requests, and the
  /// encodeResponse bytes of completed ones (a key is in one or neither).
  /// Answered points into VerdictBytes, which holds each distinct verdict
  /// once; node-based, so the pointers stay valid as it grows.
  std::unordered_map<std::string, ReqPtr> Requests;
  std::unordered_map<std::string, const std::string *> Answered;
  std::unordered_set<std::string, BytesHash, std::equal_to<>> VerdictBytes;
  /// Canonical key -> the request currently computing it (the leader).
  /// Entries are erased as their verdicts land; never persisted.
  std::unordered_map<std::string, ReqPtr> InFlightByCanon;
  CacheStore Store; ///< warm-start spill target (open iff CacheFile set)
  std::unordered_map<std::string, unsigned> ClientLoad; ///< in-flight per client
  std::unordered_map<std::string, unsigned> Connected;  ///< open conns per client
  std::vector<ConnPtr> Conns; ///< live connections (guarded by M)
  std::deque<ReqPtr> PendInteractive; ///< admitted, awaiting dispatch
  std::deque<ReqPtr> PendBatch;
  std::vector<ReqPtr> Dispatched; ///< taken by a worker, not yet completed
  unsigned Inflight = 0;     ///< admitted and not yet completed
  uint64_t HeldPayloadBytes = 0; ///< payload bytes of unfinished requests
  unsigned RunningCount = 0; ///< running on a worker right now
  unsigned SinceBatch = 0;   ///< interactive dispatches since last batch
  bool ShuttingDown = false;
  std::condition_variable WorkCv; ///< pending work or shutdown (with M)
  std::atomic<uint64_t> Tick{0}; ///< ~100ms health ticks since startup
  /// Open iff JournalPath is set; fixed before any listener starts.
  RecordLogWriter Journal;
};

int Server::run() {
  // Warm-start cache: bound it, load the persisted verdicts, then start
  // spilling fresh ones. The sink is installed only after the load, so
  // loaded entries never re-append themselves (CacheStore.h).
  if (Opts.CacheCapBytes)
    BehaviourCache::global().setCapacity(Opts.CacheCapBytes);
  if (!Opts.CacheFile.empty()) {
    CacheStoreInfo Info =
        loadCacheStore(Opts.CacheFile, BehaviourCache::global());
    if (!Info.HeaderOk) {
      // Refuse to touch a file that is not a TSCS store: appending to it
      // would corrupt whatever it actually is.
      std::cerr << "tracesafed: cache file " << Opts.CacheFile << ": "
                << Info.Error << "\n";
      return 1;
    }
    Stats.PersistLoaded = Info.Loaded;
    if (!Info.Error.empty())
      log("cache file: " + Info.Error);
    if (Info.TornTail)
      log("cache file: torn tail, dropping " +
          std::to_string(Info.DroppedBytes) + " trailing bytes");
    log("cache file: warm-started " + std::to_string(Info.Loaded) +
        " verdicts");
    std::string Err;
    if (!Store.open(Opts.CacheFile, Err)) {
      std::cerr << "tracesafed: cache file " << Err << "\n";
      return 1;
    }
    BehaviourCache::global().setPersistSink(
        [this](const std::string &Key,
               const BehaviourCache::CachedQuery &E) {
          Store.append(Key, E);
          std::lock_guard<std::mutex> Lock(M);
          ++Stats.PersistSpilled;
        });
  }
  // The sink captures this server; it must not outlive run() on any exit
  // path (the global cache does).
  struct SinkGuard {
    ~SinkGuard() { BehaviourCache::global().setPersistSink(nullptr); }
  } SinkCleanup;

  // Durability first: replay the journal before accepting traffic, so a
  // reconnecting client's retries hit stored verdicts. Resume keeps the
  // journal's valid prefix and appends after it; without --resume the
  // journal starts over, so an old life's records can never answer this
  // life's requests.
  std::vector<ReqPtr> Orphans;
  if (!Opts.JournalPath.empty()) {
    std::vector<ReqPtr> Loaded; // in journal order
    auto Visit = [&](std::string_view Payload) {
      JournalRecord Rec;
      if (!decodeJournalRecord(Payload, Rec))
        return;
      std::string Key = requestKey(Rec.Client, Rec.Id);
      auto Live = Requests.find(Key);
      const bool Known = Live != Requests.end() || Answered.count(Key);
      if (Rec.Type == AdmissionRecord && !Known) {
        auto Req = std::make_shared<Request>();
        if (!decodeSubmit(Rec.Body, Req->Q))
          return;
        Req->Client = std::move(Rec.Client);
        Req->Id = Rec.Id;
        Requests.emplace(std::move(Key), Req);
        Loaded.push_back(std::move(Req));
      } else if (Rec.Type == VerdictRecord && Known) {
        // The record's body is the verdict's encodeResponse bytes: kept
        // as they are once they decode.
        QueryResponse Resp;
        if (!decodeResponse(Rec.Body, Resp))
          return;
        if (Live != Requests.end())
          Requests.erase(Live);
        answerLocked(std::move(Key), Rec.Body);
      }
    };
    std::string Err;
    if (!Journal.open(Opts.JournalPath, JournalFormat,
                      Opts.Resume ? RecordLogWriter::Mode::Resume
                                  : RecordLogWriter::Mode::Fresh,
                      Err, Visit)) {
      std::cerr << "tracesafed: journal " << Err << "\n";
      return 1;
    }
    // Orphans: admissions still live after the replay, in journal order.
    for (ReqPtr &Req : Loaded) {
      auto Live = Requests.find(requestKey(Req->Client, Req->Id));
      if (Live != Requests.end() && Live->second == Req) {
        HeldPayloadBytes += payloadBytes(*Req);
        Orphans.push_back(std::move(Req));
      }
    }
    if (Opts.Resume)
      log("resumed " + std::to_string(Requests.size() + Answered.size()) +
          " entries, " +
          std::to_string(Orphans.size()) + " orphans to recompute");
  }

  // Listeners: unix and/or TCP through the shared transport layer. A
  // startup bind failure (EADDRINUSE first among them) is a clean
  // diagnostic and exit 1 — never a half-listening daemon.
  if (Opts.SocketPath.empty() && Opts.ListenAddress.empty()) {
    std::cerr << "tracesafed: no listener configured (need a socket path "
                 "or a listen address)\n";
    return 1;
  }
  int UnixFd = -1, TcpFd = -1;
  std::string Err;
  if (!Opts.SocketPath.empty()) {
    UnixFd = listenUnix(Opts.SocketPath, Err);
    if (UnixFd < 0) {
      std::cerr << "tracesafed: " << Err << "\n";
      return 1;
    }
  }
  if (!Opts.ListenAddress.empty()) {
    std::string Host;
    uint16_t Port = 0;
    if (!parseHostPort(Opts.ListenAddress, Host, Port, Err)) {
      std::cerr << "tracesafed: --listen: " << Err << "\n";
      if (UnixFd >= 0) {
        ::close(UnixFd);
        ::unlink(Opts.SocketPath.c_str());
      }
      return 1;
    }
    uint16_t Bound = 0;
    TcpFd = listenTcp(Host, Port, Err, &Bound);
    if (TcpFd < 0) {
      std::cerr << "tracesafed: " << Err << "\n";
      if (UnixFd >= 0) {
        ::close(UnixFd);
        ::unlink(Opts.SocketPath.c_str());
      }
      return 1;
    }
    if (Opts.BoundTcpPort)
      Opts.BoundTcpPort->store(Bound, std::memory_order_release);
    if (Port == 0)
      // Ephemeral port: the operator/test has no other way to learn it.
      std::cerr << "tracesafed: listening on tcp " << Host << ":" << Bound
                << "\n";
    else
      log("listening on tcp " + Host + ":" + std::to_string(Bound));
  }

  // One query, one thread: each worker runs the requests it takes from
  // the class queues to completion, so no more queries run at once than
  // there are workers.
  unsigned NumWorkers = Opts.Workers
                            ? Opts.Workers
                            : std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerMain(); });
  // One reader thread per connection. Finished readers are joined at
  // the next health tick, so a daemon life keeps no stack mapped for a
  // connection that has gone.
  std::vector<std::pair<ConnPtr, std::thread>> Readers;
  auto JoinFinishedReaders = [&Readers] {
    std::erase_if(Readers, [](auto &R) {
      if (!R.first->ReaderDone.load(std::memory_order_acquire))
        return false;
      R.second.join();
      return true;
    });
  };

  // Recompute orphaned admissions from the resumed journal through the
  // regular scheduler: the crash interrupted them mid-flight; their
  // (client, id) keys are already registered, so a retrying client
  // attaches as waiter.
  {
    std::lock_guard<std::mutex> Lock(M);
    for (ReqPtr &Req : Orphans) {
      ++Inflight;
      ++ClientLoad[Req->Client];
      ++Stats.Resumed;
      enqueuePendingLocked(Req);
    }
    Orphans.clear();
  }
  WorkCv.notify_all();
  if (!Opts.SocketPath.empty())
    log("listening on " + Opts.SocketPath);

  // Accept loop over both listeners; the poll timeout doubles as the
  // pacing for Stop checks and the ~100ms health tick.
  auto NextTick =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  for (;;) {
    if (Opts.Stop && Opts.Stop->requested())
      break;
    pollfd Pfds[2];
    nfds_t NumFds = 0;
    if (UnixFd >= 0)
      Pfds[NumFds++] = {UnixFd, POLLIN, 0};
    if (TcpFd >= 0)
      Pfds[NumFds++] = {TcpFd, POLLIN, 0};
    int Ready = ::poll(Pfds, NumFds, 100);
    if (Ready < 0 && errno != EINTR) {
      std::cerr << "tracesafed: poll: " << std::strerror(errno) << "\n";
      break;
    }
    auto Now = std::chrono::steady_clock::now();
    if (Now >= NextTick) {
      healthTick();
      JoinFinishedReaders();
      NextTick = Now + std::chrono::milliseconds(100);
    }
    if (Ready <= 0)
      continue;
    bool Fatal = false;
    for (nfds_t I = 0; I < NumFds && !Fatal; ++I) {
      if (!(Pfds[I].revents & POLLIN))
        continue;
      const bool IsTcp = Pfds[I].fd == TcpFd;
      int Fd = ::accept(Pfds[I].fd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED ||
            errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        std::cerr << "tracesafed: accept: " << std::strerror(errno)
                  << "\n";
        Fatal = true;
        break;
      }
      if (faultPoint(FaultSite::Accept)) {
        // Injected accept failure: the peer sees an immediate close and
        // retries through its backoff, like a listen backlog overflow.
        std::lock_guard<std::mutex> Lock(M);
        ++Stats.AcceptFaults;
        ::close(Fd);
        continue;
      }
      if (IsTcp)
        setNoDelay(Fd);
      if (Opts.SendBufBytes) {
        int Val = static_cast<int>(Opts.SendBufBytes);
        ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Val, sizeof(Val));
      }
      auto C = std::make_shared<Connection>();
      C->Fd = Fd;
      C->OutboundCap = Opts.OutboundCapBytes;
      C->LastRecvTick.store(Tick.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      C->start();
      {
        std::lock_guard<std::mutex> Lock(M);
        ++Stats.Connections;
        Conns.push_back(C);
      }
      Readers.emplace_back(C, std::thread([this, C] { serveConnection(C); }));
    }
    if (Fatal)
      break;
  }

  // Shutdown: stop admitting and dispatching, cancel in-flight queries
  // (their journal records stay orphaned for the next --resume, as do
  // the still-pending ones that never dispatched), join the workers.
  if (UnixFd >= 0) {
    ::close(UnixFd);
    ::unlink(Opts.SocketPath.c_str());
  }
  if (TcpFd >= 0)
    ::close(TcpFd);
  {
    std::lock_guard<std::mutex> Lock(M);
    ShuttingDown = true;
    PendInteractive.clear();
    PendBatch.clear();
    for (auto &KV : Requests)
      KV.second->Cancel.request();
    // Break the single-flight ownership cycles now: a leader that was
    // still *queued* never runs its completion fan-out, and mutually
    // owning shared_ptrs would outlive the Requests map. The journal
    // already holds every follower's admission, so a resume recomputes
    // them independently.
    for (auto &KV : Requests) {
      KV.second->Leader.reset();
      KV.second->Followers.clear();
    }
    InFlightByCanon.clear();
  }
  WorkCv.notify_all();
  for (std::thread &T : Workers)
    T.join();

  // Unblock and join the readers (each reader joins its own writer).
  {
    std::lock_guard<std::mutex> Lock(M);
    for (const ConnPtr &C : Conns) {
      C->Open.store(false, std::memory_order_relaxed);
      ::shutdown(C->Fd, SHUT_RDWR);
    }
  }
  for (auto &R : Readers)
    R.second.join();
  log("clean shutdown: " + std::to_string(Stats.Completed) +
      " completed, " + std::to_string(Stats.Overloaded) + " shed");
  return 0;
}

} // namespace

int daemon::runServer(const ServerOptions &Options, ServerStats *Stats) {
  ServerStats Local;
  Server S(Options, Stats ? *Stats : Local);
  return S.run();
}
