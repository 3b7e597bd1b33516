//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics and the benchmark's output: a human-readable metric
/// block (with the sample count beside every percentile) followed by the
/// one-line JSON result a caller parses.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_REPORT_H
#define TSBENCH_REPORT_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tsbench {

/// Nearest-rank percentile (\p Q in [0, 1]) of \p V; 0 for an empty set.
inline double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t K = static_cast<size_t>(Q * static_cast<double>(V.size() - 1) + 0.5);
  std::nth_element(V.begin(), V.begin() + static_cast<long>(K), V.end());
  return V[K];
}

inline double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}

inline double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// "key=value" lookup in a Stats (kind 7) Detail line. Matches at a key
/// boundary only, so "cache-hits" cannot alias "cache-query-hits".
inline uint64_t statsValue(const std::string &Detail, const std::string &Key) {
  const std::string Needle = Key + "=";
  size_t Pos = Detail.find(Needle);
  while (Pos != std::string::npos && Pos != 0 && Detail[Pos - 1] != ' ')
    Pos = Detail.find(Needle, Pos + 1);
  if (Pos == std::string::npos)
    return 0;
  return std::strtoull(Detail.c_str() + Pos + Needle.size(), nullptr, 10);
}

class Metrics {
public:
  /// \p Samples is printed beside the value (0 = not a sampled statistic).
  void add(const std::string &Name, double Value, const std::string &Unit,
           uint64_t Samples = 0) {
    Items.push_back({Name, Value, Unit, Samples});
  }

  void printHuman(std::FILE *Out) const {
    for (const Item &I : Items) {
      std::fprintf(Out, "  %-32s %16.6f %-8s", I.Name.c_str(), I.Value,
                   I.Unit.c_str());
      if (I.Samples)
        std::fprintf(Out, " (n=%llu)",
                     static_cast<unsigned long long>(I.Samples));
      std::fprintf(Out, "\n");
    }
  }

  std::string json() const {
    std::string Out = "{";
    for (size_t K = 0; K < Items.size(); ++K) {
      char Buf[64];
      std::snprintf(Buf, sizeof Buf, "%.15g", Items[K].Value);
      Out += (K ? ", \"" : "\"") + Items[K].Name + "\": {\"value\": " + Buf +
             ", \"unit\": \"" + Items[K].Unit + "\"}";
    }
    return Out + "}";
  }

private:
  struct Item {
    std::string Name;
    double Value;
    std::string Unit;
    uint64_t Samples;
  };
  std::vector<Item> Items;
};

} // namespace tsbench

#endif // TSBENCH_REPORT_H
