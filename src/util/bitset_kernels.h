// Word-level bit-algebra loops and the BitSpan view they operate on.
//
// Every hot operation of the mining engine — intersection popcounts,
// subset tests, masked iteration over adjacency rows — bottoms out in a
// loop over 64-bit words. Each loop is written once here, header-inline,
// and BitSpan and DynamicBitset (util/bitset.h) call it directly. So
// does the branch body (core/branch.h), on raw words; where it passes a
// word count fixed at compile time, the loop unrolls.
//
// One set of plain scalar loops, with no SIMD variant and no switch
// between implementations: branch-and-bound runs inside seed
// graphs, whose universe is the seed's two-hop neighbourhood, so nearly
// every operand is one or two words long. Wider lanes only pay from
// about four words on (docs/ARCHITECTURE.md, bit substrate).
//
// Preconditions shared by every loop: operand arrays hold exactly
// `words` 64-bit words, and bits past a span's logical size are zero
// (the trailing-slack invariant DynamicBitset and BitMatrix maintain).
// Callers pass equal word counts; the loops do not check.

#ifndef KPLEX_UTIL_BITSET_KERNELS_H_
#define KPLEX_UTIL_BITSET_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace kplex {
namespace kernels {

/// Names the word-loop implementation in run provenance (perfbench).
inline const char* DispatchedName() { return "portable"; }

// ---- counts ------------------------------------------------------------

/// Set bits in one word. Spelled out because GCC compiles std::popcount
/// for baseline x86-64 to a call into libgcc; this form stays inline,
/// and GCC turns it into one popcnt where the target has that.
inline std::size_t PopCount(uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (w * 0x0101010101010101ULL) >> 56;
}

inline std::size_t Count(const uint64_t* a, std::size_t words) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < words; ++i) c += PopCount(a[i]);
  return c;
}

inline std::size_t AndCount(const uint64_t* a, const uint64_t* b,
                            std::size_t words) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < words; ++i) c += PopCount(a[i] & b[i]);
  return c;
}

/// popcount(a & b) over bits [begin, end) only, reading just the words
/// that cover the range, which both arrays must hold. Passing one
/// operand twice counts it alone.
inline std::size_t AndCountRange(const uint64_t* a, const uint64_t* b,
                                 std::size_t begin, std::size_t end) {
  if (begin >= end) return 0;
  const std::size_t first = begin >> 6;
  const std::size_t last = (end - 1) >> 6;
  const uint64_t head = ~uint64_t{0} << (begin & 63);
  const uint64_t tail = ~uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first == last) return PopCount(a[first] & b[first] & head & tail);
  std::size_t c = PopCount(a[first] & b[first] & head);
  for (std::size_t i = first + 1; i < last; ++i) c += PopCount(a[i] & b[i]);
  return c + PopCount(a[last] & b[last] & tail);
}

inline std::size_t AndNotCount(const uint64_t* a, const uint64_t* b,
                               std::size_t words) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < words; ++i) c += PopCount(a[i] & ~b[i]);
  return c;
}

// ---- in-place set algebra: dst op= src ----------------------------------

inline void AndInto(uint64_t* dst, const uint64_t* src, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) dst[i] &= src[i];
}

inline void OrInto(uint64_t* dst, const uint64_t* src, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) dst[i] |= src[i];
}

inline void AndNotInto(uint64_t* dst, const uint64_t* src,
                       std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) dst[i] &= ~src[i];
}

// ---- predicates ----------------------------------------------------------

/// Every set bit of a is also set in b.
inline bool IsSubset(const uint64_t* a, const uint64_t* b,
                     std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] & ~b[i]) return false;
  }
  return true;
}

/// (a & b) != 0.
inline bool Intersects(const uint64_t* a, const uint64_t* b,
                       std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

// ---- find-next / for-each word iteration -------------------------------

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Index of the lowest set bit >= `from` in a `num_bits`-bit span, or
/// kNpos. Requires the trailing-slack invariant.
inline std::size_t FindNextBit(const uint64_t* words, std::size_t num_bits,
                               std::size_t from) {
  if (from >= num_bits) return kNpos;
  const std::size_t num_words = (num_bits + 63) / 64;
  std::size_t wi = from >> 6;
  uint64_t w = words[wi] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (w != 0) return (wi << 6) + std::countr_zero(w);
    if (++wi == num_words) return kNpos;
    w = words[wi];
  }
}

/// Calls fn(i) for every set bit, ascending. Reading a word snapshot per
/// iteration makes clearing the current bit inside fn safe.
template <typename Fn>
inline void ForEachBit(const uint64_t* words, std::size_t num_words,
                       Fn&& fn) {
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    uint64_t w = words[wi];
    while (w != 0) {
      std::size_t bit = std::countr_zero(w);
      fn((wi << 6) + bit);
      w &= w - 1;
    }
  }
}

template <typename Fn>
inline void ForEachAndBit(const uint64_t* a, const uint64_t* b,
                          std::size_t num_words, Fn&& fn) {
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    uint64_t w = a[wi] & b[wi];
    while (w != 0) {
      std::size_t bit = std::countr_zero(w);
      fn((wi << 6) + bit);
      w &= w - 1;
    }
  }
}

template <typename Fn>
inline void ForEachAndNotBit(const uint64_t* a, const uint64_t* b,
                             std::size_t num_words, Fn&& fn) {
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    uint64_t w = a[wi] & ~b[wi];
    while (w != 0) {
      std::size_t bit = std::countr_zero(w);
      fn((wi << 6) + bit);
      w &= w - 1;
    }
  }
}

}  // namespace kernels

// ---- BitSpan -----------------------------------------------------------
//
// Non-owning read view over `num_bits` bits backed by 64-bit words with
// a zeroed tail. BitMatrix rows and DynamicBitsets both present as
// BitSpans, so the same loops serve the flat adjacency matrix and the
// standalone P/C/X sets.

struct BitSpan {
  const uint64_t* words = nullptr;
  std::size_t num_bits = 0;

  std::size_t size() const { return num_bits; }
  std::size_t num_words() const { return (num_bits + 63) / 64; }

  bool Test(std::size_t i) const { return (words[i >> 6] >> (i & 63)) & 1; }

  std::size_t Count() const { return kernels::Count(words, num_words()); }

  std::size_t AndCount(BitSpan o) const {
    return kernels::AndCount(words, o.words, num_words());
  }

  std::size_t AndNotCount(BitSpan o) const {
    return kernels::AndNotCount(words, o.words, num_words());
  }

  bool Intersects(BitSpan o) const {
    return kernels::Intersects(words, o.words, num_words());
  }

  bool IsSubsetOf(BitSpan o) const {
    return kernels::IsSubset(words, o.words, num_words());
  }

  bool Any() const {
    const std::size_t nw = num_words();
    for (std::size_t i = 0; i < nw; ++i) {
      if (words[i] != 0) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  std::size_t FindFirst() const { return FindNext(0); }
  std::size_t FindNext(std::size_t from) const {
    return kernels::FindNextBit(words, num_bits, from);
  }
};

}  // namespace kplex

#endif  // KPLEX_UTIL_BITSET_KERNELS_H_
