#include "Workload.h"

#include "lang/Ast.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opt/Rewrite.h"
#include "racelog/Synth.h"
#include "support/Rng.h"
#include "verify/Canonical.h"
#include "verify/ProgramGen.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <stdexcept>

using namespace tracesafe;
using namespace tracesafe::daemon;

namespace tsbench {
namespace {

/// Stream entries generated per timed second. Sized well above the
/// closed-loop rates seen on a 4-CPU host so the stream does not wrap.
constexpr unsigned ColdMixPerSecond = 6000;
constexpr unsigned RepeatHotPerSecond = 60000;
constexpr unsigned RaceLogPerSecond = 400;

constexpr unsigned HotBases = 64;
constexpr unsigned VariantsPerBase = 48;
/// One stream entry in RepeatHotColdEvery is a unique cold query.
constexpr unsigned RepeatHotColdEvery = 20;

const QueryKind ProgramKinds[] = {QueryKind::ProgramDrf, QueryKind::Behaviours,
                                  QueryKind::DrfGuarantee, QueryKind::ThinAir};
const GenDiscipline Disciplines[] = {
    GenDiscipline::Racy, GenDiscipline::LockDiscipline,
    GenDiscipline::VolatileLocations, GenDiscipline::Mixed};
const char *const DisciplineLabels[] = {"racy", "lock", "volatile", "mixed"};

const std::set<std::string> &keywords() {
  static const std::set<std::string> K = {
      "volatile", "thread", "skip", "sync",  "lock", "unlock",
      "input",    "print",  "if",   "else",  "while"};
  return K;
}

void fnv(uint64_t &H, const void *Data, size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
}

void fnvStr(uint64_t &H, const std::string &S) {
  uint64_t N = S.size();
  fnv(H, &N, sizeof N);
  fnv(H, S.data(), S.size());
}

/// One generated program query. \p Unique becomes a register-only
/// constant (`r9 := Unique;` at the end of thread 0), which changes the
/// canonical key without touching shared memory, so no two queries of a
/// run share a verdict-cache entry. Pair kinds get one Fig 10/11 rewrite
/// of that program as their second leg.
BenchQuery makeProgramQuery(Rng &R, unsigned Ordinal, unsigned MinThreads,
                            unsigned MaxThreads, int32_t Unique) {
  QueryKind Kind = ProgramKinds[Ordinal % 4];
  const bool Pair =
      Kind == QueryKind::DrfGuarantee || Kind == QueryKind::ThinAir;
  // No Fig 10/11 rule applies to an all-volatile program, so pairs cycle
  // over the other three disciplines.
  static const unsigned PairDisciplines[] = {0, 1, 3};
  unsigned D = Pair ? PairDisciplines[(Ordinal / 4) % 3] : (Ordinal / 4) % 4;
  GenOptions G;
  G.Discipline = Disciplines[D];
  G.Threads = static_cast<unsigned>(R.range(MinThreads, MaxThreads));
  G.MinStmtsPerThread = 2;
  G.MaxStmtsPerThread = 6;
  for (unsigned Attempt = 0;; ++Attempt) {
    if (Attempt == 1000)
      throw std::logic_error("no rewrite site in 1000 generated programs");
    Program P = generateProgram(R, G);
    P.thread(0).push_back(
        std::make_unique<AssignStmt>(Symbol::intern("r9"), Operand::imm(Unique)));
    BenchQuery Q;
    Q.Req.Kind = Kind;
    Q.Req.Program = printProgram(P);
    Q.Label = DisciplineLabels[D];
    if (Pair) {
      std::vector<RewriteSite> Sites = findRewriteSites(P);
      if (Sites.empty())
        continue; // deterministic retry: the Rng has moved on
      Q.Req.Transformed = printProgram(
          applyRewrite(P, Sites[R.below(Sites.size())]));
      // Fig 10/11 rewrites are safe: both guarantees must be Proved.
      Q.Want = Expect::Proved;
    } else if (Kind == QueryKind::ProgramDrf) {
      if (G.Discipline == GenDiscipline::Racy)
        Q.OracleCheck = true;
      else
        Q.Want = Expect::Proved; // DRF by construction
    } else {
      Q.Want = Expect::Proved; // a complete behaviour set
      Q.OracleCheck = true;
    }
    return Q;
  }
}

//===----------------------------------------------------------------------===//
// Alpha-variants: consistent renaming, thread permutation, format noise
//===----------------------------------------------------------------------===//

bool identStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool identChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

void collectIdents(const std::string &Text, std::set<std::string> &Out) {
  for (size_t I = 0; I < Text.size();) {
    if (Text[I] == '/' && I + 1 < Text.size() && Text[I + 1] == '/') {
      while (I < Text.size() && Text[I] != '\n')
        ++I;
      continue;
    }
    if (!identStart(Text[I])) {
      ++I;
      continue;
    }
    size_t S = I;
    while (I < Text.size() && identChar(Text[I]))
      ++I;
    std::string Id = Text.substr(S, I - S);
    if (!keywords().count(Id))
      Out.insert(std::move(Id));
  }
}

std::string renameIdents(const std::string &Text,
                         const std::map<std::string, std::string> &Map) {
  std::string Out;
  Out.reserve(Text.size() + Text.size() / 4);
  for (size_t I = 0; I < Text.size();) {
    if (!identStart(Text[I])) {
      Out += Text[I++];
      continue;
    }
    size_t S = I;
    while (I < Text.size() && identChar(Text[I]))
      ++I;
    std::string Id = Text.substr(S, I - S);
    auto It = Map.find(Id);
    Out += It == Map.end() ? Id : It->second;
  }
  return Out;
}

/// Printer output: an optional `volatile ...;` header line, then one
/// `thread {` ... `}` section per thread (nested blocks are indented, so
/// a column-0 `}` closes the thread).
void splitThreads(const std::string &Text, std::string &Header,
                  std::vector<std::string> &Threads) {
  size_t Pos = 0;
  bool InThread = false;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    End = End == std::string::npos ? Text.size() : End + 1;
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End;
    if (!InThread && Line.rfind("thread {", 0) == 0) {
      Threads.push_back(Line);
      InThread = true;
    } else if (InThread) {
      Threads.back() += Line;
      if (Line == "}\n" || Line == "}")
        InThread = false;
    } else {
      Header += Line;
    }
  }
}

/// Re-indents every line randomly and sprinkles comments and blank lines.
std::string reformat(const std::string &Text, Rng &R) {
  static const char *const Indents[] = {"", " ", "    ", "\t", "      "};
  static const char *const Assigns[] = {":=", " := ", "  :=\t"};
  std::string Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    End = End == std::string::npos ? Text.size() : End;
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos)
      continue;
    std::string Body = Line.substr(First);
    for (size_t A = Body.find(" := "); A != std::string::npos;
         A = Body.find(" := ", A + 1)) {
      const char *Rep = Assigns[R.below(3)];
      Body.replace(A, 4, Rep);
      A += std::char_traits<char>::length(Rep) - 1;
    }
    if (R.chance(1, 6))
      Out += "// v" + std::to_string(R.below(1000)) + "\n";
    Out += Indents[R.below(5)] + Body;
    if (R.chance(1, 4))
      Out += "  // " + std::to_string(R.below(100000));
    Out += R.chance(1, 8) ? "\n\n" : "\n";
  }
  return Out;
}

/// A fresh alpha-variant of \p Base: every register, location and monitor
/// renamed (registers keep the parser's leading 'r'), thread sections
/// permuted, whitespace and comments changed. Pair queries get one
/// renaming and one permutation across both legs, which is what keeps the
/// source/target thread correspondence.
BenchQuery makeVariant(const BenchQuery &Base, int32_t BaseIndex, Rng &R) {
  static const char *const LocPrefixes[] = {"x", "cell", "g", "lk", "v", "mu"};
  std::set<std::string> Ids;
  collectIdents(Base.Req.Program, Ids);
  collectIdents(Base.Req.Transformed, Ids);
  std::map<std::string, std::string> Map;
  unsigned K = 0;
  for (const std::string &Id : Ids) {
    std::string Fresh;
    if (isRegisterName(Id)) {
      Fresh.push_back('r');
      Fresh.push_back(static_cast<char>('a' + R.below(26)));
    } else {
      Fresh = LocPrefixes[R.below(6)];
    }
    Map[Id] = Fresh + "_" + std::to_string(K++);
  }
  std::string HeaderP, HeaderT;
  std::vector<std::string> TP, TT;
  splitThreads(renameIdents(Base.Req.Program, Map), HeaderP, TP);
  const bool Pair = !Base.Req.Transformed.empty();
  if (Pair)
    splitThreads(renameIdents(Base.Req.Transformed, Map), HeaderT, TT);
  std::vector<size_t> Perm(TP.size());
  for (size_t I = 0; I < Perm.size(); ++I)
    Perm[I] = I;
  for (size_t I = Perm.size(); I > 1; --I)
    std::swap(Perm[I - 1], Perm[R.below(I)]);
  auto Assemble = [&](const std::string &Header,
                      const std::vector<std::string> &Threads) {
    std::string Text = Header;
    for (size_t I : Perm)
      Text += Threads.at(I);
    return reformat(Text, R);
  };
  BenchQuery V = Base;
  V.Req.Program = Assemble(HeaderP, TP);
  if (Pair)
    V.Req.Transformed = Assemble(HeaderT, TT);
  V.Base = BaseIndex;
  V.OracleCheck = false; // the base's answer is oracle-checked instead
  return V;
}

std::string canonicalKey(const BenchQuery &Q) {
  return canonicalQueryKey(static_cast<uint8_t>(Q.Req.Kind), Q.Req.Program,
                           Q.Req.Transformed, BudgetSpec{});
}

//===----------------------------------------------------------------------===//
// The three workloads
//===----------------------------------------------------------------------===//

/// cold-mix: every query distinct, 2-3 threads, all four disciplines and
/// all four kinds in equal shares.
void buildColdMix(Workload &W, Rng &R, unsigned Seconds) {
  W.Clients = 2;
  int32_t Unique = 1000;
  unsigned Ordinal = 0;
  auto Add = [&](std::vector<uint32_t> &List) {
    List.push_back(static_cast<uint32_t>(W.Queries.size()));
    W.Queries.push_back(makeProgramQuery(R, Ordinal++, 2, 3, Unique++));
  };
  for (unsigned I = 0; I < 32; ++I)
    Add(W.Warm);
  for (unsigned I = 0; I < 32; ++I)
    Add(W.Lazy);
  for (uint64_t I = 0, N = uint64_t(Seconds) * ColdMixPerSecond; I < N; ++I)
    Add(W.Stream);
}

/// repeat-hot: 64 two-thread base queries re-submitted as alpha-variants
/// (~95%), plus unique two-thread cold queries (~5%).
void buildRepeatHot(Workload &W, Rng &R, unsigned Seconds) {
  W.Clients = 4;
  int32_t Unique = 1000;
  unsigned Ordinal = 0;
  for (unsigned B = 0; B < HotBases; ++B) {
    W.Warm.push_back(static_cast<uint32_t>(W.Queries.size()));
    W.Queries.push_back(makeProgramQuery(R, Ordinal++, 2, 2, Unique++));
  }
  const uint32_t VariantBase = static_cast<uint32_t>(W.Queries.size());
  for (unsigned B = 0; B < HotBases; ++B) {
    const std::string Key = canonicalKey(W.Queries[B]);
    for (unsigned V = 0; V < VariantsPerBase; ++V) {
      BenchQuery Var = makeVariant(W.Queries[B], static_cast<int32_t>(B), R);
      if (canonicalKey(Var) != Key)
        throw std::logic_error("variant of hot query " + std::to_string(B) +
                               " is not canonically equal to its base");
      W.Queries.push_back(std::move(Var));
    }
  }
  auto AddCold = [&](std::vector<uint32_t> &List) {
    List.push_back(static_cast<uint32_t>(W.Queries.size()));
    BenchQuery Q = makeProgramQuery(R, Ordinal++, 2, 2, Unique++);
    Q.Label = "cold";
    W.Queries.push_back(std::move(Q));
  };
  for (unsigned I = 0; I < 16; ++I)
    AddCold(W.Lazy);
  for (uint64_t I = 0, N = uint64_t(Seconds) * RepeatHotPerSecond; I < N;
       ++I) {
    if (R.below(RepeatHotColdEvery) == 0) {
      AddCold(W.Stream);
      continue;
    }
    uint64_t Base = R.below(HotBases);
    uint64_t Variant = R.below(VariantsPerBase);
    W.Stream.push_back(VariantBase +
                       static_cast<uint32_t>(Base * VariantsPerBase + Variant));
  }
}

/// racelog-scan: kind-5 queries cycling a pool of 8-thread Synth logs:
/// race-free, mixed and lock-heavy, each at 1, 2, 3 and 4 MiB. The seed
/// picks the log contents and the order, never the sizes or the mix, so
/// every seed moves the same bytes.
void buildRaceLogScan(Workload &W, Rng &R, unsigned Seconds) {
  W.Clients = 2;
  // ~150 MB/s of logs: a 2 s life retains ~300 MB, a 10 s one 1.5 GB.
  W.LifeSeconds = 2;
  constexpr unsigned Pool = 12;
  constexpr uint64_t BytesPerEvent = 16;
  for (unsigned I = 0; I < Pool; ++I) {
    racelog::SynthOptions O;
    O.Threads = 8;
    // Log 0 (the set-up probe) is the smallest race-free one.
    uint64_t MiB = 1 + I / 3;
    O.Events = (MiB << 20) / BytesPerEvent;
    O.Seed = R.next();
    BenchQuery Q;
    Q.Req.Kind = QueryKind::RaceLog;
    switch (I % 3) {
    case 0:
      Q.Req.Program = racelog::makeRaceFreeLog(O);
      Q.Want = Expect::Proved;
      Q.Label = "race-free-log";
      break;
    case 1:
      Q.Req.Program = racelog::makeMixedLog(O);
      Q.Want = Expect::Refuted;
      Q.Label = "mixed-log";
      break;
    default:
      Q.Req.Program = racelog::makeLockHeavyLog(O);
      Q.Want = Expect::Proved;
      Q.Label = "lock-heavy-log";
      break;
    }
    if (Q.Req.Program.size() + 4096 > MaxFramePayload)
      throw std::logic_error("synth log exceeds the frame payload cap");
    W.Warm.push_back(static_cast<uint32_t>(W.Queries.size()));
    W.Queries.push_back(std::move(Q));
  }
  // Whole shuffled passes over the pool, so every log's share is exact.
  std::vector<uint32_t> Pass(Pool);
  for (uint32_t I = 0; I < Pool; ++I)
    Pass[I] = I;
  while (W.Stream.size() < uint64_t(Seconds) * RaceLogPerSecond) {
    for (size_t I = Pool; I > 1; --I)
      std::swap(Pass[I - 1], Pass[R.below(I)]);
    W.Stream.insert(W.Stream.end(), Pass.begin(), Pass.end());
  }
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"cold-mix", "repeat-hot",
                                                 "racelog-scan"};
  return Names;
}

Workload makeWorkload(const std::string &Name, uint64_t Seed,
                      unsigned Seconds) {
  Workload W;
  W.Name = Name;
  uint64_t NameHash = 0xcbf29ce484222325ULL;
  fnvStr(NameHash, Name);
  Rng R(Seed ^ NameHash);
  if (Name == "cold-mix")
    buildColdMix(W, R, Seconds);
  else if (Name == "repeat-hot")
    buildRepeatHot(W, R, Seconds);
  else if (Name == "racelog-scan")
    buildRaceLogScan(W, R, Seconds);
  else
    throw std::invalid_argument("unknown workload '" + Name + "'");

  uint64_t H = 0xcbf29ce484222325ULL;
  for (const BenchQuery &Q : W.Queries) {
    uint8_t Tag[2] = {static_cast<uint8_t>(Q.Req.Kind),
                      static_cast<uint8_t>(Q.Want)};
    fnv(H, Tag, sizeof Tag);
    fnvStr(H, Q.Req.Program);
    fnvStr(H, Q.Req.Transformed);
  }
  for (const std::vector<uint32_t> *L : {&W.Warm, &W.Lazy, &W.Stream}) {
    uint64_t N = L->size();
    fnv(H, &N, sizeof N);
    fnv(H, L->data(), L->size() * sizeof(uint32_t));
  }
  W.Digest = H;
  return W;
}

} // namespace tsbench
