//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-protocol decoder tests (torn, truncated, and garbage frames; CRC
/// detection; pipelined decoding) plus the client backoff schedule and a
/// socketpair-driven retry test under injected transport faults. The
/// decoder is pure, so every corruption case runs without a socket.
///
//===----------------------------------------------------------------------===//

#include "daemon/Client.h"
#include "daemon/Protocol.h"
#include "daemon/Transport.h"
#include "support/Failure.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <linux/sockios.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace {

Frame submitFrame(uint64_t Id) {
  Frame F;
  F.Type = FrameType::Submit;
  F.RequestId = Id;
  QueryRequest Q;
  Q.Kind = QueryKind::DrfGuarantee;
  Q.Program = "thread { x := 1; }\n";
  Q.Transformed = "thread { x := 1; x := 1; }\n";
  Q.Budget = BudgetSpec{/*DeadlineMs=*/250, /*MaxVisited=*/1000,
                        /*MaxMemoryBytes=*/1 << 20};
  F.Payload = encodeSubmit(Q);
  return F;
}

/// A RaceLog query carrying \p Bytes of seeded binary payload.
QueryRequest bigRaceLogQuery(size_t Bytes, uint64_t Seed) {
  Rng R(Seed);
  QueryRequest Q;
  Q.Kind = QueryKind::RaceLog;
  Q.Program.resize(Bytes);
  for (char &C : Q.Program)
    C = static_cast<char>(R.below(256));
  return Q;
}

/// A Submit frame carrying a seeded binary RaceLog payload of \p Bytes.
Frame bigSubmitFrame(uint64_t Id, size_t Bytes, uint64_t Seed) {
  Frame F;
  F.Type = FrameType::Submit;
  F.RequestId = Id;
  F.Payload = encodeSubmit(bigRaceLogQuery(Bytes, Seed));
  return F;
}

/// Waits until the peer of unix socket \p Fd has consumed everything
/// sent so far (bounded; gives up after ~5 s).
void waitDrained(int Fd) {
  for (int I = 0; I < 500000; ++I) {
    int Queued = 0;
    if (::ioctl(Fd, SIOCOUTQ, &Queued) != 0 || Queued == 0)
      return;
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  }
}

TEST(Protocol, FrameRoundTrips) {
  Frame In = submitFrame(42);
  std::string Buf = encodeFrame(In);
  Frame Out;
  ASSERT_EQ(decodeFrame(Buf, Out), DecodeStatus::Ok);
  EXPECT_EQ(Out.Type, FrameType::Submit);
  EXPECT_EQ(Out.RequestId, 42u);
  EXPECT_EQ(Out.Payload, In.Payload);
  EXPECT_TRUE(Buf.empty()) << "the decoded frame must be consumed";

  QueryRequest Q;
  ASSERT_TRUE(decodeSubmit(Out.Payload, Q));
  EXPECT_EQ(Q.Kind, QueryKind::DrfGuarantee);
  EXPECT_EQ(Q.Program, "thread { x := 1; }\n");
  EXPECT_EQ(Q.Budget.DeadlineMs, 250);
  EXPECT_EQ(Q.Budget.MaxVisited, 1000u);
}

TEST(Protocol, ResponseRoundTripsAndRenders) {
  QueryResponse R;
  R.Status = ResponseStatus::Ok;
  R.Kind = VerdictKind::Refuted;
  R.Reason = TruncationReason::None;
  R.Degraded = true;
  R.Visited = 1234;
  R.Detail = "race";
  std::string Payload = encodeResponse(R);
  QueryResponse Out;
  ASSERT_TRUE(decodeResponse(Payload, Out));
  EXPECT_EQ(Out.str(), R.str());
  EXPECT_EQ(Out.str(), "ok refuted none degraded visited=1234 race");
}

TEST(Protocol, TruncatedFramesAskForMoreAtEveryPrefix) {
  std::string Whole = encodeFrame(submitFrame(7));
  // Every strict prefix is NeedMore — the decoder must never misparse a
  // torn frame, whether the tear is in the header or the payload.
  for (size_t Len = 0; Len < Whole.size(); ++Len) {
    std::string Buf = Whole.substr(0, Len);
    Frame Out;
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::NeedMore) << Len;
    EXPECT_EQ(Buf.size(), Len) << "NeedMore must not consume bytes";
  }
}

TEST(Protocol, PipelinedFramesDecodeOneAtATime) {
  std::string Buf = encodeFrame(submitFrame(1)) +
                    encodeFrame(submitFrame(2)) +
                    encodeFrame(submitFrame(3));
  for (uint64_t Want = 1; Want <= 3; ++Want) {
    Frame Out;
    ASSERT_EQ(decodeFrame(Buf, Out), DecodeStatus::Ok);
    EXPECT_EQ(Out.RequestId, Want);
  }
  Frame Out;
  EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::NeedMore);
}

TEST(Protocol, GarbageIsRejectedNotParsed) {
  Frame Out;
  {
    std::string Buf(64, '\xA5'); // random-ish junk, wrong magic
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadMagic);
  }
  {
    std::string Buf = encodeFrame(submitFrame(1));
    Buf[4] = 99; // version byte
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadVersion);
  }
  {
    std::string Buf = encodeFrame(submitFrame(1));
    Buf[16] = '\xFF'; // payload length -> > MaxFramePayload
    Buf[17] = '\xFF';
    Buf[18] = '\xFF';
    Buf[19] = '\x7F';
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadLength);
  }
}

TEST(Protocol, FlagBitsAreVersionChecked) {
  // Corruption matrix for the flags word (header offset 6..7):
  //  - v1 frames must carry zero flags — a v1 peer cannot understand any
  //    flag semantics, so a set bit means a confused or hostile stream;
  //  - v2 frames may set only KnownFrameFlags;
  //  - the v2 streaming bit itself is legal.
  Frame Out;
  {
    Frame F = submitFrame(1);
    F.Version = 1;
    std::string Buf = encodeFrame(F);
    Buf[6] = 0x01; // v1 + any flag bit -> BadFlags
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadFlags);
  }
  {
    Frame F = submitFrame(2);
    F.Version = 2;
    std::string Buf = encodeFrame(F);
    Buf[6] = 0x02; // v2 + unknown bit -> BadFlags
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadFlags);
  }
  {
    Frame F = submitFrame(3);
    F.Version = 2;
    std::string Buf = encodeFrame(F);
    Buf[7] = 0x40; // v2 + unknown high-byte bit -> BadFlags
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadFlags);
  }
  {
    Frame F;
    F.Version = 2;
    F.Type = FrameType::Hello;
    F.Flags = FrameFlagStreaming;
    F.Payload = encodeHello("flags-test");
    std::string Buf = encodeFrame(F);
    ASSERT_EQ(decodeFrame(Buf, Out), DecodeStatus::Ok);
    EXPECT_EQ(Out.Version, 2u);
    EXPECT_EQ(Out.Flags, FrameFlagStreaming);
  }
}

TEST(Protocol, SubmitLayoutsAreVersioned) {
  QueryRequest Q;
  Q.Kind = QueryKind::DrfGuarantee;
  Q.Program = "thread { x := 1; }\n";
  Q.Transformed = "thread { skip; }\n";
  Q.Class = ClientClass::Batch;
  Q.Priority = 7;

  // v2 round-trips the scheduling fields.
  QueryRequest V2;
  ASSERT_TRUE(decodeSubmit(encodeSubmit(Q, 2), V2, 2));
  EXPECT_EQ(V2.Class, ClientClass::Batch);
  EXPECT_EQ(V2.Priority, 7u);

  // The v1 layout has no scheduling bytes: a v1 decode defaults them,
  // and the two layouts are not interchangeable (the length-checked
  // decoder rejects the mismatch rather than misparsing).
  QueryRequest V1;
  ASSERT_TRUE(decodeSubmit(encodeSubmit(Q, 1), V1, 1));
  EXPECT_EQ(V1.Class, ClientClass::Interactive);
  EXPECT_EQ(V1.Priority, 0u);
  EXPECT_FALSE(decodeSubmit(encodeSubmit(Q, 2), V1, 1));
  EXPECT_FALSE(decodeSubmit(encodeSubmit(Q, 1), V2, 2));

  // Bad scheduling bytes are rejected, not clamped.
  std::string Bad = encodeSubmit(Q, 2);
  Bad[Bad.size() - 2] = 9; // class byte
  EXPECT_FALSE(decodeSubmit(Bad, V2, 2));
}

TEST(Protocol, WelcomeCarriesTheNegotiatedVersion) {
  std::string Name;
  uint64_t V = 0;
  ASSERT_TRUE(decodeWelcome(encodeWelcome("tracesafed", 1), Name, &V));
  EXPECT_EQ(Name, "tracesafed");
  EXPECT_EQ(V, 1u);
  ASSERT_TRUE(decodeWelcome(encodeWelcome("tracesafed", 2), Name, &V));
  EXPECT_EQ(V, 2u);
  // The version argument is optional for old callers.
  ASSERT_TRUE(decodeWelcome(encodeWelcome("tracesafed", 2), Name));
}

TEST(Protocol, ProgressRoundTripsAndRejectsMalformed) {
  ProgressUpdate U;
  U.Seq = 42;
  U.Phase = ProgressPhase::Partial;
  U.Visited = 1000;
  U.SpentBytes = 4096;
  U.SubIndex = 3;
  QueryResponse Sub;
  Sub.Status = ResponseStatus::Ok;
  Sub.Kind = VerdictKind::Proved;
  U.Partial = encodeResponse(Sub);

  std::string Payload = encodeProgress(U);
  ProgressUpdate Out;
  ASSERT_TRUE(decodeProgress(Payload, Out));
  EXPECT_EQ(Out.Seq, 42u);
  EXPECT_EQ(Out.Phase, ProgressPhase::Partial);
  EXPECT_EQ(Out.Visited, 1000u);
  EXPECT_EQ(Out.SpentBytes, 4096u);
  EXPECT_EQ(Out.SubIndex, 3u);
  QueryResponse SubOut;
  ASSERT_TRUE(decodeResponse(Out.Partial, SubOut));
  EXPECT_EQ(SubOut.str(), Sub.str());

  EXPECT_FALSE(decodeProgress("", Out));
  EXPECT_FALSE(decodeProgress(Payload.substr(0, Payload.size() - 1), Out));
  EXPECT_FALSE(decodeProgress(Payload + "x", Out));
  std::string BadPhase = Payload;
  BadPhase[8] = 99; // phase byte follows the u64 Seq
  EXPECT_FALSE(decodeProgress(BadPhase, Out));
}

TEST(Protocol, CampaignRoundTripsAndRejectsMalformed) {
  std::vector<QueryRequest> Subs(3);
  Subs[0].Kind = QueryKind::ProgramDrf;
  Subs[0].Program = "thread { x := 1; }\n";
  Subs[1].Kind = QueryKind::DrfGuarantee;
  Subs[1].Program = "thread { x := 1; }\n";
  Subs[1].Transformed = "thread { skip; }\n";
  Subs[2].Kind = QueryKind::ThinAir;
  Subs[2].Program = "thread { x := 1; }\n";
  Subs[2].Transformed = "thread { x := 1; }\n";

  QueryRequest Camp = makeCampaign(Subs, BudgetSpec{100, 1000, 1 << 20},
                                   /*Priority=*/3);
  EXPECT_EQ(Camp.Kind, QueryKind::Campaign);
  EXPECT_EQ(Camp.Class, ClientClass::Batch);
  EXPECT_EQ(Camp.Priority, 3u);

  std::vector<QueryRequest> Out;
  ASSERT_TRUE(decodeCampaign(Camp.Program, Out));
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0].Kind, QueryKind::ProgramDrf);
  EXPECT_EQ(Out[1].Transformed, "thread { skip; }\n");
  EXPECT_EQ(Out[2].Kind, QueryKind::ThinAir);

  EXPECT_FALSE(decodeCampaign("", Out));
  EXPECT_FALSE(decodeCampaign(Camp.Program + "x", Out));
  EXPECT_FALSE(
      decodeCampaign(Camp.Program.substr(0, Camp.Program.size() - 1), Out));
}

TEST(Protocol, BitFlipsAreCaughtByTheCrc) {
  std::string Whole = encodeFrame(submitFrame(9));
  // Flip one bit in every payload byte in turn: all must be BadCrc.
  for (size_t I = FrameHeaderSize; I < Whole.size(); I += 7) {
    std::string Buf = Whole;
    Buf[I] = static_cast<char>(Buf[I] ^ 0x10);
    Frame Out;
    EXPECT_EQ(decodeFrame(Buf, Out), DecodeStatus::BadCrc) << I;
  }
}

TEST(Protocol, MalformedPayloadsFailCleanly) {
  QueryRequest Q;
  EXPECT_FALSE(decodeSubmit("", Q));
  std::string Good = encodeSubmit(Q);
  EXPECT_FALSE(decodeSubmit(Good.substr(0, Good.size() - 1), Q));
  EXPECT_FALSE(decodeSubmit(Good + "x", Q)) << "trailing bytes rejected";
  std::string BadKind = Good;
  BadKind[0] = 99;
  EXPECT_FALSE(decodeSubmit(BadKind, Q));
  QueryResponse R;
  EXPECT_FALSE(decodeResponse("", R));
}

TEST(Backoff, DeterministicBoundedAndJittered) {
  // Same seed, same schedule.
  uint64_t R1 = 77, R2 = 77;
  for (unsigned A = 0; A < 12; ++A)
    EXPECT_EQ(backoffDelayMs(A, 10, 1000, R1),
              backoffDelayMs(A, 10, 1000, R2));

  // Every delay respects the truncated-exponential ceiling.
  uint64_t R = 5;
  for (unsigned A = 0; A < 40; ++A) {
    uint64_t Ceil = std::min<uint64_t>(1000, 10ull << std::min(A, 20u));
    EXPECT_LE(backoffDelayMs(A, 10, 1000, R), Ceil) << A;
  }

  // Jitter actually varies (not a constant schedule).
  uint64_t R3 = 123;
  uint64_t First = backoffDelayMs(6, 10, 1000, R3);
  bool Varied = false;
  for (int I = 0; I < 16 && !Varied; ++I)
    Varied = backoffDelayMs(6, 10, 1000, R3) != First;
  EXPECT_TRUE(Varied);

  // Degenerate parameters do not divide by zero.
  uint64_t R4 = 1;
  EXPECT_EQ(backoffDelayMs(0, 0, 0, R4), 0u);
}

TEST(Transport, ReadFrameSurvivesByteAtATimeDelivery) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Whole = encodeFrame(submitFrame(11));
  std::thread Writer([&] {
    for (char C : Whole) {
      ASSERT_EQ(::write(Fds[0], &C, 1), 1);
    }
    ::shutdown(Fds[0], SHUT_WR);
  });
  std::string Buf;
  Frame Out;
  EXPECT_TRUE(readFrame(Fds[1], Buf, Out));
  EXPECT_EQ(Out.RequestId, 11u);
  EXPECT_FALSE(readFrame(Fds[1], Buf, Out)) << "then a clean EOF";
  Writer.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Transport, MidFrameEofIsAnError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Whole = encodeFrame(submitFrame(12));
  ASSERT_GT(::write(Fds[0], Whole.data(), Whole.size() / 2), 0);
  ::shutdown(Fds[0], SHUT_WR);
  std::string Buf;
  Frame Out;
  EXPECT_THROW(readFrame(Fds[1], Buf, Out), ProtocolError);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Transport, HostPortSpecsParseAndClassify) {
  std::string Host, Err;
  uint16_t Port = 0;
  ASSERT_TRUE(parseHostPort("127.0.0.1:8080", Host, Port, Err));
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 8080);
  ASSERT_TRUE(parseHostPort("localhost:0", Host, Port, Err));
  EXPECT_EQ(Port, 0);
  EXPECT_FALSE(parseHostPort("no-port-here", Host, Port, Err));
  EXPECT_FALSE(parseHostPort("host:notanumber", Host, Port, Err));
  EXPECT_FALSE(parseHostPort("host:99999", Host, Port, Err));

  // The spec router: paths (anything with a slash) are unix sockets,
  // host:port strings are TCP.
  EXPECT_TRUE(looksLikeTcpSpec("127.0.0.1:80"));
  EXPECT_TRUE(looksLikeTcpSpec("localhost:1234"));
  EXPECT_FALSE(looksLikeTcpSpec("/tmp/ts.sock"));
  EXPECT_FALSE(looksLikeTcpSpec("./relative:weird/path"));
  EXPECT_FALSE(looksLikeTcpSpec("plainfile"));
}

TEST(Transport, TcpLoopbackDeliversTornAndByteAtATimeFrames) {
  // The framing survives arbitrary TCP segmentation: a frame torn into
  // two MSG_NOSIGNAL sends and another dribbled one byte per send must
  // both reassemble; pipelined frames decode one at a time.
  std::string Err;
  uint16_t Port = 0;
  int ListenFd = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(ListenFd, 0) << Err;
  ConnectOutcome Outcome;
  int ClientFd = connectTcp("127.0.0.1", Port, 2000, Outcome, Err);
  ASSERT_GE(ClientFd, 0) << Err;
  EXPECT_EQ(Outcome, ConnectOutcome::Ok);
  int ServerFd = ::accept(ListenFd, nullptr, nullptr);
  ASSERT_GE(ServerFd, 0);
  setNoDelay(ClientFd); // flush each tiny send immediately

  std::thread Writer([&] {
    std::string A = encodeFrame(submitFrame(21));
    writeBytes(ClientFd, A.substr(0, A.size() / 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    writeBytes(ClientFd, A.substr(A.size() / 2));
    std::string B = encodeFrame(submitFrame(22));
    for (char C : B)
      writeBytes(ClientFd, std::string(1, C));
    ::shutdown(ClientFd, SHUT_WR);
  });
  std::string Buf;
  Frame Out;
  EXPECT_TRUE(readFrame(ServerFd, Buf, Out));
  EXPECT_EQ(Out.RequestId, 21u);
  EXPECT_TRUE(readFrame(ServerFd, Buf, Out));
  EXPECT_EQ(Out.RequestId, 22u);
  EXPECT_FALSE(readFrame(ServerFd, Buf, Out)) << "then a clean EOF";
  Writer.join();
  ::close(ClientFd);
  ::close(ServerFd);
  ::close(ListenFd);
}

TEST(Transport, ConnectFailuresAreClassified) {
  // Refused: a freshly released loopback port. The classification is
  // what lets operators (and the client's counters) tell a crashed
  // daemon from a black-holed network.
  std::string Err;
  uint16_t Port = 0;
  int ListenFd = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(ListenFd, 0) << Err;
  ::close(ListenFd);
  ConnectOutcome Outcome;
  int Fd = connectTcp("127.0.0.1", Port, 2000, Outcome, Err);
  EXPECT_LT(Fd, 0);
  EXPECT_EQ(Outcome, ConnectOutcome::Refused);
  EXPECT_STREQ(connectOutcomeName(Outcome), "refused");

  // An unresolvable host is an error, not a hang.
  Fd = connectTcp("definitely.not.a.dotted.quad", 1, 100, Outcome, Err);
  EXPECT_LT(Fd, 0);
  EXPECT_EQ(Outcome, ConnectOutcome::Error);

  // The client library counts refused connects apart from timeouts.
  ClientOptions CO;
  CO.Address = "127.0.0.1:" + std::to_string(Port);
  CO.Name = "refused-test";
  CO.MaxAttempts = 3;
  CO.BackoffCapMs = 5;
  DaemonClient Client(CO);
  QueryRequest Q;
  Q.Kind = QueryKind::ProgramDrf;
  Q.Program = "thread { x := 1; }\n";
  EXPECT_THROW(Client.call(Q), ProtocolError);
  // Connect attempts nest (per-call retries x per-connect retries); what
  // matters is that every one was classified as refused, none as a
  // timeout.
  EXPECT_GE(Client.stats().Refused, 3u);
  EXPECT_EQ(Client.stats().ConnectTimeouts, 0u);
}

TEST(Transport, ListenTcpReportsAddressInUse) {
  std::string Err;
  uint16_t Port = 0;
  int First = listenTcp("127.0.0.1", 0, Err, &Port);
  ASSERT_GE(First, 0) << Err;
  std::string Err2;
  int Second = listenTcp("127.0.0.1", Port, Err2, nullptr);
  EXPECT_LT(Second, 0);
  EXPECT_NE(Err2.find("in use"), std::string::npos) << Err2;
  ::close(First);
}

TEST(Transport, ReadFrameTimedDistinguishesSilenceFromEof) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Buf;
  Frame Out;
  // Silence: Timeout, and the buffer keeps any partial frame.
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 20), ReadStatus::Timeout);
  std::string Whole = encodeFrame(submitFrame(31));
  ASSERT_GT(::write(Fds[0], Whole.data(), 5), 0);
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 20), ReadStatus::Timeout);
  ASSERT_GT(::write(Fds[0], Whole.data() + 5, Whole.size() - 5), 0);
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 1000), ReadStatus::Frame);
  EXPECT_EQ(Out.RequestId, 31u);
  ::shutdown(Fds[0], SHUT_WR);
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 1000), ReadStatus::Eof);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Transport, InjectedFaultsThrowAtTheInstrumentedSites) {
  FaultPlan Plan;
  Plan.arm(FaultSite::ProtoWrite, 1);
  Plan.arm(FaultSite::ProtoRead, 1);
  FaultPlan::Scope Armed(Plan);
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  EXPECT_THROW(writeFrame(Fds[0], submitFrame(1)), ProtocolError);
  // Disarmed after one fire: the next write goes through.
  EXPECT_NO_THROW(writeFrame(Fds[0], submitFrame(2)));
  std::string Buf;
  Frame Out;
  EXPECT_THROW(readFrame(Fds[1], Buf, Out), ProtocolError);
  EXPECT_TRUE(readFrame(Fds[1], Buf, Out));
  EXPECT_EQ(Out.RequestId, 2u);
  EXPECT_EQ(Plan.fired(FaultSite::ProtoWrite), 1u);
  EXPECT_EQ(Plan.fired(FaultSite::ProtoRead), 1u);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Transport, MultiMiBFrameSurvivesTearsAndOddSizedChunks) {
  // A 3 MiB Submit torn after every header byte (and one past the
  // header), the rest in odd-sized chunks of up to 32 KiB, each sent only
  // once the reader has drained the previous one. The frame must
  // round-trip exactly, and reading it may take at most one read() per
  // chunk: the payload is read in requests sized for the rest of the
  // frame, not in fixed small pieces. ProtoRead is probed once per read,
  // so the probe count is the read count.
  const Frame In = bigSubmitFrame(77, 3u << 20, 11);
  const std::string Whole = encodeFrame(In);
  Rng R(5);
  for (size_t Tear = 1; Tear <= FrameHeaderSize + 1; ++Tear) {
    std::vector<size_t> Chunks{Tear};
    for (size_t Off = Tear; Off < Whole.size(); Off += Chunks.back())
      Chunks.push_back(
          std::min<size_t>(Whole.size() - Off, 1 + 2 * R.below(16384)));
    int Fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    FaultPlan Counter; // armed beyond reach: it only counts the probes
    Counter.arm(FaultSite::ProtoRead, ~0ULL);
    FaultPlan::Scope Installed(Counter);
    std::thread Writer([&] {
      size_t Off = 0;
      for (size_t C : Chunks) {
        waitDrained(Fds[0]);
        writeBytes(Fds[0], Whole.substr(Off, C));
        Off += C;
      }
    });
    std::string Buf;
    Frame Out;
    bool Got = readFrame(Fds[1], Buf, Out);
    Writer.join();
    ASSERT_TRUE(Got) << "tear " << Tear;
    EXPECT_EQ(Out.Type, FrameType::Submit);
    EXPECT_EQ(Out.RequestId, 77u);
    ASSERT_TRUE(Out.Payload == In.Payload) << "tear " << Tear;
    EXPECT_TRUE(Buf.empty());
    EXPECT_GE(Counter.hits(FaultSite::ProtoRead), 2u);
    EXPECT_LE(Counter.hits(FaultSite::ProtoRead), Chunks.size())
        << "tear " << Tear;
    ::close(Fds[0]);
    ::close(Fds[1]);
  }
}

TEST(Transport, AReadStoppedMidPayloadResumesOnTheNextCall) {
  const Frame In = bigSubmitFrame(78, 2u << 20, 12);
  const std::string Whole = encodeFrame(In);
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Buf;
  Frame Out;
  {
    // An injected read fault in the middle of the payload: the bytes
    // that already arrived stay in the buffer, and the next call
    // finishes the same frame.
    FaultPlan Plan;
    Plan.arm(FaultSite::ProtoRead, 3);
    FaultPlan::Scope Armed(Plan);
    std::thread Writer([&] { writeBytes(Fds[0], Whole); });
    EXPECT_THROW(readFrame(Fds[1], Buf, Out), ProtocolError);
    EXPECT_GT(Buf.size(), FrameHeaderSize);
    EXPECT_LT(Buf.size(), Whole.size());
    EXPECT_TRUE(readFrame(Fds[1], Buf, Out));
    Writer.join();
    EXPECT_EQ(Plan.fired(FaultSite::ProtoRead), 1u);
  }
  EXPECT_EQ(Out.RequestId, 78u);
  EXPECT_TRUE(Out.Payload == In.Payload);
  EXPECT_TRUE(Buf.empty());

  // A timed read that times out mid-payload keeps what arrived too.
  const size_t Half = Whole.size() / 2;
  std::thread Writer([&] { writeBytes(Fds[0], Whole.substr(0, Half)); });
  ReadStatus S;
  while ((S = readFrameTimed(Fds[1], Buf, Out, 50)) == ReadStatus::Timeout &&
         Buf.size() < Half) {
  }
  Writer.join();
  EXPECT_EQ(S, ReadStatus::Timeout);
  EXPECT_EQ(Buf.size(), Half);
  std::thread Rest([&] { writeBytes(Fds[0], Whole.substr(Half)); });
  EXPECT_EQ(readFrameTimed(Fds[1], Buf, Out, 5000), ReadStatus::Frame);
  Rest.join();
  EXPECT_EQ(Out.RequestId, 78u);
  EXPECT_TRUE(Out.Payload == In.Payload);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

void noopHandler(int) {}

/// Everything \p Write sends into one end of a unix socketpair, as a
/// reader thread receives it on the other end. With \p Choppy the
/// sender's buffer is small, the reader drains it a few KiB at a time,
/// and a third thread keeps signalling the writing thread: a signal that
/// interrupts a blocked sendmsg after some bytes went out makes it return
/// a short count, so the write resumes mid-piece many times over.
std::string bytesSent(const std::function<void(int Fd)> &Write,
                      bool Choppy = false) {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
    return "socketpair failed";
  struct sigaction Old {};
  if (Choppy) {
    int Small = 4096;
    ::setsockopt(Fds[0], SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
    struct sigaction Sa {};
    Sa.sa_handler = noopHandler;
    ::sigaction(SIGUSR1, &Sa, &Old); // no SA_RESTART
  }
  std::string Got;
  std::thread Reader([&] {
    char Buf[64 << 10];
    const size_t Chunk = Choppy ? 3000 : sizeof(Buf);
    for (;;) {
      ssize_t N = ::read(Fds[1], Buf, Chunk);
      if (N <= 0)
        return;
      Got.append(Buf, static_cast<size_t>(N));
      if (Choppy)
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  std::atomic<bool> Done{false};
  std::thread Signaller;
  if (Choppy)
    Signaller = std::thread([&, Writer = ::pthread_self()] {
      while (!Done.load()) {
        ::pthread_kill(Writer, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  Write(Fds[0]);
  Done = true;
  if (Signaller.joinable())
    Signaller.join();
  ::shutdown(Fds[0], SHUT_WR);
  Reader.join();
  if (Choppy)
    ::sigaction(SIGUSR1, &Old, nullptr);
  ::close(Fds[0]);
  ::close(Fds[1]);
  return Got;
}

TEST(Transport, WriteSubmitSendsTheBytesOfAnEncodedSubmit) {
  QueryRequest Empty; // empty Program and Transformed
  QueryRequest Pair;
  Pair.Kind = QueryKind::DrfGuarantee;
  Pair.Program = "thread { x := 1; }\n";
  Pair.Transformed = "thread { x := 1; x := 1; }\n";
  Pair.Budget = BudgetSpec{250, 1000, 1 << 20};
  Pair.Class = ClientClass::Batch;
  Pair.Priority = 7;
  const QueryRequest Log = bigRaceLogQuery(4u << 20, 21);
  const QueryRequest *const Queries[] = {&Empty, &Pair, &Log};
  uint64_t Id = 100;
  for (uint8_t Version : {uint8_t(1), uint8_t(2)}) {
    for (const QueryRequest *Q : Queries) {
      Frame F;
      F.Version = Version;
      F.Type = FrameType::Submit;
      F.RequestId = ++Id;
      F.Payload = encodeSubmit(*Q, Version);
      const std::string Want = encodeFrame(F);
      std::string Got = bytesSent(
          [&](int Fd) { writeSubmit(Fd, Version, F.RequestId, *Q); });
      EXPECT_TRUE(Got == Want) << "v" << int(Version) << " "
                               << queryKindName(Q->Kind) << ": "
                               << Got.size() << " vs " << Want.size();
    }
  }

  // Short sends resume across the pieces, still byte for byte.
  Frame F;
  F.RequestId = 7;
  F.Type = FrameType::Submit;
  F.Payload = encodeSubmit(Log);
  std::string Got = bytesSent(
      [&](int Fd) { writeSubmit(Fd, ProtocolVersion, 7, Log); },
      /*Choppy=*/true);
  EXPECT_TRUE(Got == encodeFrame(F)) << Got.size();

  // One ProtoWrite probe per frame; an injected fault writes nothing.
  FaultPlan Plan;
  Plan.arm(FaultSite::ProtoWrite, 2);
  FaultPlan::Scope Armed(Plan);
  Got = bytesSent([&](int Fd) {
    writeSubmit(Fd, ProtocolVersion, 1, Pair);
    EXPECT_THROW(writeSubmit(Fd, ProtocolVersion, 2, Pair), ProtocolError);
  });
  F.RequestId = 1;
  F.Payload = encodeSubmit(Pair);
  EXPECT_EQ(Got, encodeFrame(F));
  EXPECT_EQ(Plan.hits(FaultSite::ProtoWrite), 2u);
}

} // namespace
