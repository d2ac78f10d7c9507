// Hashing utilities: 64-bit FNV-1a for strings and hash combining.

#ifndef TEGRA_COMMON_HASH_H_
#define TEGRA_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace tegra {

/// \brief 64-bit FNV-1a hash of a byte string. Deterministic across runs and
/// platforms (unlike std::hash), which matters for serialized corpora.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// \brief Mixes a new 64-bit value into an existing hash (boost-style).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  // Constants from splitmix64's finalizer.
  v += 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return seed ^ (v ^ (v >> 31));
}

}  // namespace tegra

#endif  // TEGRA_COMMON_HASH_H_
