// Shared helpers of the bench_ledger benchmark: clocks, order statistics,
// the output digests and the metric record every workload reports.
//
// The digests hash with the benchmark's own FNV-1a so that a change to the
// program's hashing can never move the committed reference values.

#ifndef TEGRA_BENCH_LEDGER_LEDGER_H_
#define TEGRA_BENCH_LEDGER_LEDGER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// True while fewer than `min_passes` have run, or another pass as long as
/// the last one still ends within `seconds` of `start`.
inline bool AnotherPass(Clock::time_point start, size_t passes,
                        double last_pass_s, double seconds,
                        size_t min_passes) {
  return passes < min_passes || SecondsSince(start) + last_pass_s <= seconds;
}

/// Linear interpolation between the closest ranks (q in [0, 1]); 0 for an
/// empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// 64-bit FNV-1a over a byte stream; strings are length-prefixed so that
/// ("ab","c") and ("a","bc") hash differently.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Ends a row in a table digest. No cell is this long, so the marker never
/// collides with a cell's length prefix; a table digest is the cells of
/// each row followed by the marker, which a response parser can feed
/// incrementally.
inline constexpr uint64_t kRowEnd = ~0ULL;

/// Digest of a served or extracted table: its rows, cell by cell.
inline uint64_t RowsDigest(const std::vector<std::vector<std::string>>& rows) {
  Digest d;
  for (const auto& row : rows) {
    for (const auto& cell : row) d.Add(cell);
    d.Add(kRowEnd);
  }
  return d.value();
}

/// Combines per-list digests in list-index order, so the result does not
/// depend on the (seeded) order the lists were sent in.
inline uint64_t CombineDigests(const std::vector<uint64_t>& per_list) {
  Digest d;
  d.Add(static_cast<uint64_t>(per_list.size()));
  for (uint64_t v : per_list) d.Add(v);
  return d.value();
}

inline std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace ledger

#endif  // TEGRA_BENCH_LEDGER_LEDGER_H_
