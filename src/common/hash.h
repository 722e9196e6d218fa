#ifndef MBP_COMMON_HASH_H_
#define MBP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mbp {

// Rounds v up to the next power of two (returns 1 for v == 0).
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  v |= v >> 32;
  return v + 1;
}

// splitmix64 finalizer: a cheap full-avalanche mix, so that keys differing
// only in high bits (e.g. bit patterns of nearby doubles or pointers)
// still spread across power-of-two masks.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Standard FNV-1a, 64-bit: the cross-process-stable string hash (std::hash
// is not portable). Keys the synthetic training-set seeds and the
// consistent-hash ring, so its values are part of those formats.
inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// Standard FNV-1a, 32-bit: the per-frame checksum of the wire protocol and
// the WAL, and the intern table's key hash.
inline uint32_t Fnv1a32(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace mbp

#endif  // MBP_COMMON_HASH_H_
