#include "verify/Canonical.h"

#include "lang/Lexer.h"
#include "support/Failure.h"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <tuple>
#include <vector>

using namespace tracesafe;

namespace {

/// Identifier classes, as the parser assigns them. Each is renamed in its
/// own namespace with its own prefix.
enum NameClass : uint8_t { Register, Location, Monitor };
constexpr char ClassPrefix[] = {'r', 'g', 'm'};

/// Threads whose local texts tie are tried in every order up to this many
/// orders; beyond it they keep their submitted order (still a correct key,
/// only permutations of the tied threads stop colliding).
constexpr uint64_t MaxTieOrders = 120;

bool takesMonitor(std::string_view S) {
  return S == "lock" || S == "unlock" || S == "sync";
}

/// Open-addressing map from (class, spelling) to a dense number: the
/// renamings' lookup, with no allocation per name and no shared state.
class NameTable {
public:
  /// Empties the table. One grown by a large thread shrinks back, so the
  /// small threads after it do not each pay for wiping it.
  void clear() {
    if (Slots.size() > 64 && Used * 8 < Slots.size())
      Slots.assign(64, Slot{});
    else if (Used)
      std::fill(Slots.begin(), Slots.end(), Slot{});
    Used = 0;
  }

  /// The number of (\p C, \p S); if absent, inserts it as \p Fresh and
  /// returns \p Fresh.
  uint32_t findOrAdd(uint8_t C, std::string_view S, uint32_t Fresh) {
    if (2 * (Used + 1) > Slots.size())
      grow();
    Slot &Sl = Slots[probe(C, S)];
    if (!Sl.Full) {
      Sl = Slot{S, Fresh, C, true};
      ++Used;
    }
    return Sl.Value;
  }

  bool contains(uint8_t C, std::string_view S) const {
    return Used && Slots[probe(C, S)].Full;
  }

private:
  struct Slot {
    std::string_view Name;
    uint32_t Value = 0;
    uint8_t Class = 0;
    bool Full = false;
  };
  std::vector<Slot> Slots; ///< power-of-two size, allocated on first use
  size_t Used = 0;

  /// The slot holding (\p C, \p S), or the empty slot it would go in.
  size_t probe(uint8_t C, std::string_view S) const {
    size_t Mask = Slots.size() - 1;
    uint64_t H = 0xcbf29ce484222325ULL ^ C; // FNV-1a: names are short
    for (char Ch : S)
      H = (H ^ static_cast<uint8_t>(Ch)) * 0x100000001b3ULL;
    H &= Mask;
    while (Slots[H].Full && (Slots[H].Class != C || Slots[H].Name != S))
      H = (H + 1) & Mask;
    return H;
  }

  void grow() {
    std::vector<Slot> Old(std::max<size_t>(32, Slots.size() * 2));
    Old.swap(Slots);
    for (const Slot &Sl : Old)
      if (Sl.Full)
        Slots[probe(Sl.Class, Sl.Name)] = Sl;
  }
};

/// One program's token stream, framed: its declared volatiles and the
/// token range of each thread body.
struct Framed {
  std::vector<Token> Tokens;
  NameTable Volatiles; ///< declared location names (class Location)
  std::vector<std::pair<uint32_t, uint32_t>> Threads; ///< [Begin, End)
  /// Per token: 1 + its index into its thread's Names, 0 if not a name.
  std::vector<uint32_t> Refs;
};

/// Checks the parser's top-level framing (volatile declarations, thread
/// sections, end of input) without parsing statements. False = raw key.
bool frame(std::string_view Source, Framed &P) {
  lex(Source, P.Tokens);
  P.Volatiles.clear();
  P.Threads.clear();
  const std::vector<Token> &Ts = P.Tokens;
  if (Ts.size() >= 2 && Ts[Ts.size() - 2].Kind == TokenKind::Error)
    return false;
  size_t I = 0;
  auto AtIdent = [&](std::string_view S) {
    return Ts[I].Kind == TokenKind::Ident && Ts[I].Text == S;
  };
  while (AtIdent("volatile")) {
    do {
      ++I;
      // A keyword declared volatile would need its uses told apart from
      // the keyword's; such rare programs keep their raw key.
      if (Ts[I].Kind != TokenKind::Ident || isKeyword(Ts[I].Text))
        return false;
      // A volatile 'r...' name can never be accessed: every use of it is
      // a register.
      if (Ts[I].Text[0] != 'r')
        P.Volatiles.findOrAdd(Location, Ts[I].Text, 0);
      ++I;
    } while (Ts[I].Kind == TokenKind::Comma);
    if (Ts[I].Kind != TokenKind::Semi)
      return false;
    ++I;
  }
  while (AtIdent("thread")) {
    if (Ts[++I].Kind != TokenKind::LBrace)
      return false;
    uint32_t Begin = static_cast<uint32_t>(++I);
    for (size_t Depth = 1;; ++I) {
      TokenKind K = Ts[I].Kind;
      if (K == TokenKind::EndOfFile)
        return false;
      if (K == TokenKind::LBrace)
        ++Depth;
      else if (K == TokenKind::RBrace && --Depth == 0)
        break;
    }
    P.Threads.emplace_back(Begin, static_cast<uint32_t>(I));
    ++I;
  }
  return Ts[I].Kind == TokenKind::EndOfFile && !P.Threads.empty();
}

/// Writes \p N in decimal at \p W; returns the end. At most 10 digits.
char *putNumber(char *W, uint32_t N) { return std::to_chars(W, W + 10, N).ptr; }

/// Writes one renamed name (class prefix and number) at \p W.
char *putName(char *W, uint8_t Class, uint32_t N) {
  *W++ = ClassPrefix[Class];
  return putNumber(W, N);
}

/// A name of one thread, in first-occurrence order.
struct LocalName {
  std::string_view Spelling;
  uint8_t Class;
  uint32_t Number; ///< its local canonical number within Class
};

struct ThreadText {
  std::vector<LocalName> Names;
  std::string Local; ///< the body under its own renaming: the sort key
};

/// Appends the body tokens [Begin, End) of \p P to \p Out, writing each
/// name through \p Name (which writes at a char pointer and returns the
/// end). A space separates adjacent words only, which is all the lexer
/// needs to read the same tokens back. Every token renders in at most 11
/// characters (a keyword, a number, or a prefix and a number), so the
/// buffer is sized once and written through a pointer.
template <typename NameFn>
void emitBody(const Framed &P, uint32_t Begin, uint32_t End, std::string &Out,
              NameFn &&Name) {
  size_t Old = Out.size();
  Out.resize(Old + size_t(End - Begin) * 12);
  char *W = Out.data() + Old;
  bool Word = false;
  for (uint32_t K = Begin; K < End; ++K) {
    const Token &T = P.Tokens[K];
    switch (T.Kind) {
    case TokenKind::Ident:
      if (Word)
        *W++ = ' ';
      if (P.Refs[K])
        W = Name(P.Refs[K] - 1, W);
      else
        W = std::copy(T.Text.begin(), T.Text.end(), W);
      Word = true;
      break;
    case TokenKind::Number:
      if (Word)
        *W++ = ' ';
      W = putNumber(W, static_cast<uint32_t>(T.Num));
      Word = true;
      break;
    default:
      W = std::copy(T.Text.begin(), T.Text.end(), W);
      Word = false;
      break;
    }
  }
  Out.resize(static_cast<size_t>(W - Out.data()));
}

/// Classifies every name of every thread of \p P and renders each thread
/// under its own fresh renaming.
void localTexts(Framed &P, std::vector<ThreadText> &Out, NameTable &Table) {
  P.Refs.assign(P.Tokens.size(), 0);
  Out.resize(P.Threads.size());
  for (size_t I = 0; I < P.Threads.size(); ++I) {
    auto [Begin, End] = P.Threads[I];
    ThreadText &TT = Out[I];
    TT.Names.clear();
    TT.Local.clear();
    Table.clear();
    uint32_t Next[3] = {0, 0, 0};
    bool MonitorNext = false;
    for (uint32_t K = Begin; K < End; ++K) {
      const Token &T = P.Tokens[K];
      if (T.Kind != TokenKind::Ident) {
        MonitorNext = false;
        continue;
      }
      if (isKeyword(T.Text)) {
        MonitorNext = takesMonitor(T.Text);
        continue;
      }
      uint8_t C = MonitorNext ? Monitor : T.Text[0] == 'r' ? Register
                                                           : Location;
      MonitorNext = false;
      uint32_t Fresh = static_cast<uint32_t>(TT.Names.size());
      uint32_t Idx = Table.findOrAdd(C, T.Text, Fresh);
      if (Idx == Fresh)
        TT.Names.push_back(LocalName{T.Text, C, Next[C]++});
      P.Refs[K] = Idx + 1;
    }
    emitBody(P, Begin, End, TT.Local, [&](uint32_t Idx, char *W) {
      return putName(W, TT.Names[Idx].Class, TT.Names[Idx].Number);
    });
  }
}

/// The global renaming of one candidate thread order, spanning both
/// programs of a pair.
struct GlobalRenamer {
  NameTable Table;
  uint32_t Next[3] = {0, 0, 0};
  std::vector<uint32_t> Map;    ///< current thread: local index -> number
  std::vector<uint32_t> VolIds; ///< current program's accessed volatiles
  std::string Body;

  void reset() {
    Table.clear();
    std::fill(std::begin(Next), std::end(Next), 0);
  }

  /// Appends the canonical text of \p P with its threads in \p Order.
  void emitProgram(const Framed &P, const std::vector<ThreadText> &Texts,
                   const std::vector<uint32_t> &Order, std::string &Out) {
    constexpr uint32_t Unset = ~0u;
    Body.clear();
    VolIds.clear();
    for (uint32_t I : Order) {
      const ThreadText &TT = Texts[I];
      Map.assign(TT.Names.size(), Unset);
      Body += "thread{";
      emitBody(P, P.Threads[I].first, P.Threads[I].second, Body,
               [&](uint32_t Idx, char *W) {
                 const LocalName &N = TT.Names[Idx];
                 uint32_t &Id = Map[Idx];
                 if (Id == Unset) {
                   Id = Table.findOrAdd(N.Class, N.Spelling, Next[N.Class]);
                   if (Id == Next[N.Class])
                     ++Next[N.Class];
                   if (N.Class == Location &&
                       P.Volatiles.contains(Location, N.Spelling))
                     VolIds.push_back(Id);
                 }
                 return putName(W, N.Class, Id);
               });
      Body += "}\n";
    }
    if (!VolIds.empty()) {
      std::sort(VolIds.begin(), VolIds.end());
      VolIds.erase(std::unique(VolIds.begin(), VolIds.end()), VolIds.end());
      Out += "volatile ";
      for (uint32_t Id : VolIds) {
        char Buf[12];
        Out.append(Buf, putName(Buf, Location, Id));
        Out += ',';
      }
      Out.back() = ';';
      Out += '\n';
    }
    Out += Body;
  }
};

/// Every buffer one key build needs. Each thread keeps one and reuses it,
/// so a daemon reader keys query after query without allocating.
struct Scratch {
  Framed P, T;
  std::vector<ThreadText> TP, TT;
  NameTable Local;
  GlobalRenamer G;
  std::vector<uint32_t> Perm, PermT;
  std::vector<std::pair<size_t, size_t>> Ties;
  std::string OutP, OutT, CandP, CandT;

  /// Buffers grown by a huge query are released rather than kept for the
  /// thread's life.
  bool oversized() const {
    constexpr size_t MaxKeptTokens = size_t(1) << 14;
    return P.Tokens.capacity() > MaxKeptTokens ||
           T.Tokens.capacity() > MaxKeptTokens ||
           OutP.capacity() + OutT.capacity() > 8 * MaxKeptTokens;
  }
};

/// Canonical texts of \p PSrc (and \p TSrc, for a pair) into \p OutP and
/// \p OutT. False when either program cannot be framed.
bool canonicalTexts(Scratch &S, std::string_view PSrc, std::string_view TSrc,
                    bool Pair, std::string &OutP, std::string &OutT) {
  Framed &P = S.P, &T = S.T;
  if (!frame(PSrc, P) || (Pair && !frame(TSrc, T)))
    return false;
  std::vector<ThreadText> &TP = S.TP, &TT = S.TT;
  localTexts(P, TP, S.Local);
  if (Pair)
    localTexts(T, TT, S.Local);

  const size_t N = P.Threads.size();
  const bool Joint = Pair && T.Threads.size() == N;
  std::vector<uint32_t> &Perm = S.Perm, &PermT = S.PermT;
  Perm.resize(N);
  PermT.resize(Pair ? T.Threads.size() : 0);
  std::iota(Perm.begin(), Perm.end(), 0u);
  std::iota(PermT.begin(), PermT.end(), 0u);
  // Sorting is by the local texts (jointly for a pair). A pair with
  // mismatched thread counts keeps both orders: the thread correspondence
  // is unclear. Renaming still applies.
  auto Less = [&](uint32_t A, uint32_t B) {
    if (TP[A].Local != TP[B].Local)
      return TP[A].Local < TP[B].Local;
    return Joint && TT[A].Local < TT[B].Local;
  };
  std::vector<std::pair<size_t, size_t>> &Ties = S.Ties;
  Ties.clear();
  uint64_t Orders = 1;
  if (!Pair || Joint) {
    std::stable_sort(Perm.begin(), Perm.end(), Less);
    for (size_t B = 0, E; B < N; B = E) {
      for (E = B + 1; E < N && !Less(Perm[B], Perm[E]); ++E)
        ;
      for (size_t K = 2; K <= E - B && Orders <= MaxTieOrders; ++K)
        Orders *= K;
      if (E - B > 1)
        Ties.emplace_back(B, E);
    }
  }

  auto Emit = [&](std::string &CP, std::string &CT) {
    S.G.reset();
    S.G.emitProgram(P, TP, Perm, CP);
    if (Pair)
      S.G.emitProgram(T, TT, Joint ? Perm : PermT, CT);
  };
  Emit(OutP, OutT);
  if (Ties.empty() || Orders > MaxTieOrders)
    return true;
  // Tied threads look alike alone but may differ in the names they share
  // with the others: every order of every tie group is rendered, and the
  // smallest text is the canonical one. Each group starts ascending (the
  // stable sort) and next_permutation wraps it back, odometer style.
  std::string &CP = S.CandP, &CT = S.CandT;
  for (;;) {
    bool Advanced = false;
    for (auto [B, E] : Ties)
      if (std::next_permutation(Perm.begin() + B, Perm.begin() + E)) {
        Advanced = true;
        break;
      }
    if (!Advanced)
      return true;
    CP.clear();
    CT.clear();
    Emit(CP, CT);
    if (std::tie(CP, CT) < std::tie(OutP, OutT)) {
      OutP.swap(CP);
      OutT.swap(CT);
    }
  }
}

void appendWord(std::string &Out, uint64_t W) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((W >> (I * 8)) & 0xFF));
}

void appendSized(std::string &Out, std::string_view S) {
  appendWord(Out, S.size());
  Out += S;
}

} // namespace

std::string tracesafe::canonicalQueryKey(uint8_t KindTag,
                                         std::string_view Program,
                                         std::string_view Transformed,
                                         const BudgetSpec &Clamped) {
  thread_local Scratch S;
  bool Canonical = false;
  try {
    faultThrowInjected(FaultSite::Canonicalise);
    S.OutP.clear();
    S.OutT.clear();
    Canonical = canonicalTexts(S, Program, Transformed, !Transformed.empty(),
                               S.OutP, S.OutT);
  } catch (...) {
    // Injected Canonicalise faults (and any allocation failure inside the
    // builder) are contained here: the raw key below is still a correct
    // key for the query, just cache-cold for alpha-variants.
    Canonical = false;
  }
  std::string_view KP = Canonical ? std::string_view(S.OutP) : Program;
  std::string_view KT = Canonical ? std::string_view(S.OutT) : Transformed;
  std::string Key;
  Key.reserve(1 + 16 + KP.size() + KT.size() + 24);
  Key.push_back(static_cast<char>(KindTag));
  appendSized(Key, KP);
  appendSized(Key, KT);
  appendWord(Key, static_cast<uint64_t>(Clamped.DeadlineMs));
  appendWord(Key, Clamped.MaxVisited);
  appendWord(Key, Clamped.MaxMemoryBytes);
  if (S.oversized())
    S = Scratch();
  return Key;
}

