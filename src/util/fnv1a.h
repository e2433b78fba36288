// FNV-1a, 64-bit, over a byte stream: the checksum of every durable file
// in the tree (`.kpx` sections, result-store entries and store.idx) and
// the result store's key hash. Pass one block's result as the next
// block's `hash` to hash several blocks as one stream.

#ifndef KPLEX_UTIL_FNV1A_H_
#define KPLEX_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace kplex {

inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

inline uint64_t Fnv1a(const void* data, std::size_t bytes,
                      uint64_t hash = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace kplex

#endif  // KPLEX_UTIL_FNV1A_H_
