//===----------------------------------------------------------------------===//
///
/// \file
/// Memory-model explorer: given a program (file argument, or a built-in
/// store-buffering demo), enumerate and diff its behaviours under
/// sequential consistency, TSO and PSO, report data race freedom, and —
/// when relaxed behaviours exist — show which safe transformation chain
/// explains each one (the §8 methodology as an interactive tool).
///
//===----------------------------------------------------------------------===//

#include "lang/Explore.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "tso/TsoExplain.h"
#include "tso/TsoMachine.h"
#include "support/Signal.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace tracesafe;

namespace {

const char *Demo = R"(
// Dekker-style mutual exclusion attempt (store buffering).
thread { x := 1; r1 := y; print r1; }
thread { y := 1; r2 := x; print r2; }
)";

std::string renderBehaviour(const Behaviour &B) {
  std::string Out = "[";
  for (size_t I = 0; I < B.size(); ++I)
    Out += (I ? "," : "") + std::to_string(B[I]);
  return Out + "]";
}

/// Maximal behaviours only (the set is prefix-closed; the frontier is what
/// a user wants to read).
std::vector<Behaviour> frontier(const std::set<Behaviour> &Bs) {
  std::vector<Behaviour> Out;
  for (const Behaviour &B : Bs) {
    bool HasExtension = false;
    for (const Behaviour &C : Bs)
      if (C.size() == B.size() + 1 &&
          std::equal(B.begin(), B.end(), C.begin()))
        HasExtension = true;
    if (!HasExtension)
      Out.push_back(B);
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  static CancelToken Stop;
  installCancelOnSignal(Stop);
  std::string Source = Demo;
  std::string Name = "<builtin demo>";
  if (argc > 1) {
    std::ifstream In(argv[1]);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
    Name = argv[1];
  }
  ParseResult Parsed = parseProgram(Source);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s: %s\n", Name.c_str(),
                 Parsed.Error.c_str());
    return 1;
  }
  Program P = std::move(*Parsed.Prog);
  std::printf("== program (%s) ==\n%s\n", Name.c_str(),
              printProgram(P).c_str());
  std::printf("data race freedom: %s\n\n",
              isProgramDrf(P) ? "DRF" : "RACY");

  std::set<Behaviour> Sc = programBehaviours(P);
  std::set<Behaviour> Tso = tsoBehaviours(P);
  std::set<Behaviour> Pso = psoBehaviours(P);

  std::printf("== maximal behaviours ==\n");
  std::printf("%-16s %-5s %-5s %-5s\n", "behaviour", "SC", "TSO", "PSO");
  for (const Behaviour &B : frontier(Pso))
    std::printf("%-16s %-5s %-5s %-5s\n", renderBehaviour(B).c_str(),
                Sc.count(B) ? "yes" : "-", Tso.count(B) ? "yes" : "-",
                Pso.count(B) ? "yes" : "-");

  // Explain the relaxed behaviours via safe transformations.
  std::set<Behaviour> Relaxed;
  for (const Behaviour &B : Pso)
    if (!Sc.count(B))
      Relaxed.insert(B);
  if (Relaxed.empty()) {
    std::printf("\nno relaxed behaviours: the program is observationally "
                "SC on both machines.\n");
    return 0;
  }
  std::printf("\n== explaining %zu relaxed behaviour(s) by safe "
              "transformations ==\n",
              Relaxed.size());
  bool Truncated = false;
  size_t Programs = 0;
  std::set<Behaviour> Union =
      reachableScBehaviours(P, 3, {}, {}, &Truncated, &Programs);
  size_t Explained = 0;
  for (const Behaviour &B : Relaxed)
    Explained += Union.count(B);
  std::printf("explored %zu transformed programs (depth <= 3): "
              "%zu/%zu relaxed behaviours explained%s\n",
              Programs, Explained, Relaxed.size(),
              Truncated ? " (truncated!)" : "");
  if (signalled())
    return ExitInterrupted;
  return Explained == Relaxed.size() && !Truncated ? 0 : 1;
}
