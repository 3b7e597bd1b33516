//===----------------------------------------------------------------------===//
///
/// \file
/// Tiny string helpers shared by the printing code and the CLIs.
///
//===----------------------------------------------------------------------===//

#ifndef TRACESAFE_SUPPORT_FORMAT_H
#define TRACESAFE_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <vector>

namespace tracesafe {

/// Joins \p Parts with \p Sep: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Indents every line of \p Text by \p Spaces spaces.
std::string indent(const std::string &Text, unsigned Spaces);

/// Parses \p S, a CLI's numeric flag value, as a decimal count no larger
/// than \p Max (the range of the flag's destination) into \p Out. Only
/// digits are accepted: a sign, whitespace, an empty string or a value
/// above \p Max is refused, where strtoull would wrap "-1" to 2^64 - 1.
bool parseCount(const char *S, uint64_t Max, uint64_t &Out);

} // namespace tracesafe

#endif // TRACESAFE_SUPPORT_FORMAT_H
