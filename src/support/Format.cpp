#include "support/Format.h"

using namespace tracesafe;

std::string tracesafe::join(const std::vector<std::string> &Parts,
                            const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string tracesafe::indent(const std::string &Text, unsigned Spaces) {
  std::string Pad(Spaces, ' ');
  std::string Out;
  bool AtLineStart = true;
  for (char C : Text) {
    if (AtLineStart && C != '\n')
      Out += Pad;
    Out += C;
    AtLineStart = (C == '\n');
  }
  return Out;
}

bool tracesafe::parseCount(const char *S, uint64_t Max, uint64_t &Out) {
  if (!S || !*S)
    return false;
  uint64_t V = 0;
  for (; *S; ++S) {
    if (*S < '0' || *S > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(*S - '0');
    if (D > Max || V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}
