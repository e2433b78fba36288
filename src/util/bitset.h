// DynamicBitset: a fixed-width (set at construction/resize) bitset over
// 64-bit words. It is the workhorse of the mining engine: the P/C/X sets
// of every branch-and-bound node are DynamicBitsets, and the hot
// operations (intersection popcounts, subset tests, masked iteration)
// call the inline word loops of util/bitset_kernels.h — the same loops
// that serve the flat BitMatrix adjacency rows, so a DynamicBitset
// composes freely with BitSpan operands (adjacency rows convert
// implicitly).
//
// Invariants and preconditions:
//   * Trailing slack: bits in [num_bits_, words*64) are always zero.
//     Count(), Hash() and operator== additionally mask the tail word so
//     a stray slack write can never make equal sets compare unequal;
//     debug builds assert the index range on every Set/Reset/Test.
//   * Binary operations require operands of equal size (and therefore
//     equal word counts). Debug builds assert this; release builds do
//     not check, and mismatched operands are undefined behavior.

#ifndef KPLEX_UTIL_BITSET_H_
#define KPLEX_UTIL_BITSET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitset_kernels.h"

namespace kplex {

class DynamicBitset {
 public:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  DynamicBitset() = default;
  /// Creates a bitset of `num_bits` bits, all clear.
  explicit DynamicBitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  /// Resizes to `num_bits`, clearing all bits.
  void ResizeClear(std::size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
  }

  std::size_t size() const { return num_bits_; }
  std::size_t num_words() const { return words_.size(); }

  /// The num_words() words; writers keep the trailing slack zero.
  uint64_t* data() { return words_.data(); }
  const uint64_t* data() const { return words_.data(); }

  /// Read-only view; lets a DynamicBitset stand in wherever the kernel
  /// layer expects a BitSpan (and vice versa for binary-op operands).
  BitSpan AsSpan() const { return BitSpan{words_.data(), num_bits_}; }
  operator BitSpan() const { return AsSpan(); }

  void Set(std::size_t i) {
    assert(i < num_bits_ && "DynamicBitset::Set index out of range");
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }
  void Reset(std::size_t i) {
    assert(i < num_bits_ && "DynamicBitset::Reset index out of range");
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  bool Test(std::size_t i) const {
    assert(i < num_bits_ && "DynamicBitset::Test index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Clears bits [0, n) — used for "ids strictly greater than" masks in
  /// set-enumeration search.
  void ResetBelow(std::size_t n) {
    if (n == 0) return;
    if (n >= num_bits_) {
      ResetAll();
      return;
    }
    std::size_t full_words = n >> 6;
    for (std::size_t i = 0; i < full_words; ++i) words_[i] = 0;
    words_[full_words] &= ~uint64_t{0} << (n & 63);
  }

  /// Sets bits [begin, end), word-parallel.
  void SetRange(std::size_t begin, std::size_t end) {
    assert(end <= num_bits_ && "DynamicBitset::SetRange end out of range");
    if (begin >= end) return;
    const std::size_t bw = begin >> 6;
    const std::size_t ew = (end - 1) >> 6;
    const uint64_t bmask = ~uint64_t{0} << (begin & 63);
    const uint64_t emask = ~uint64_t{0} >> (63 - ((end - 1) & 63));
    if (bw == ew) {
      words_[bw] |= bmask & emask;
      return;
    }
    words_[bw] |= bmask;
    for (std::size_t i = bw + 1; i < ew; ++i) words_[i] = ~uint64_t{0};
    words_[ew] |= emask;
  }

  /// Sets bits [0, size) and clears the trailing slack of the last word.
  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    TrimTail();
  }
  void ResetAll() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits. Tail-masked: immune to slack-bit corruption.
  std::size_t Count() const {
    if (words_.empty()) return 0;
    return kernels::Count(words_.data(), words_.size() - 1) +
           kernels::PopCount(words_.back() & TailMask());
  }

  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  // In-place set algebra. Precondition: operands have equal size (debug
  // builds assert; see the header comment).
  void AndWith(BitSpan o) {
    kernels::AndInto(words_.data(), o.words, SameSizeWords(o));
  }
  void OrWith(BitSpan o) {
    kernels::OrInto(words_.data(), o.words, SameSizeWords(o));
  }
  void AndNotWith(BitSpan o) {
    kernels::AndNotInto(words_.data(), o.words, SameSizeWords(o));
  }

  /// popcount(this & o) without materializing the intersection.
  std::size_t AndCount(BitSpan o) const {
    return kernels::AndCount(words_.data(), o.words, SameSizeWords(o));
  }

  /// popcount(this & ~o).
  std::size_t AndNotCount(BitSpan o) const {
    return kernels::AndNotCount(words_.data(), o.words, SameSizeWords(o));
  }

  /// True iff (this & o) has at least one set bit.
  bool Intersects(BitSpan o) const {
    return kernels::Intersects(words_.data(), o.words, SameSizeWords(o));
  }

  /// True iff every set bit of this is also set in o.
  bool IsSubsetOf(BitSpan o) const {
    return kernels::IsSubset(words_.data(), o.words, SameSizeWords(o));
  }

  /// Index of the lowest set bit, or kNpos if none.
  std::size_t FindFirst() const { return FindNext(0); }

  /// Index of the lowest set bit >= from, or kNpos if none.
  std::size_t FindNext(std::size_t from) const {
    return kernels::FindNextBit(words_.data(), num_bits_, from);
  }

  /// Calls fn(i) for every set bit i in ascending order. The word is
  /// snapshotted per iteration, so resetting the current bit inside fn
  /// is safe.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    kernels::ForEachBit(words_.data(), words_.size(),
                        static_cast<Fn&&>(fn));
  }

  /// Calls fn(i) for every set bit of (this & o), ascending.
  template <typename Fn>
  void ForEachAnd(BitSpan o, Fn&& fn) const {
    kernels::ForEachAndBit(words_.data(), o.words, SameSizeWords(o),
                           static_cast<Fn&&>(fn));
  }

  /// The set bits as a vector of indices (test/debug convenience).
  std::vector<uint32_t> ToVector() const;

  /// Order-insensitive 64-bit content hash (FNV-1a over words,
  /// tail-masked).
  uint64_t Hash() const;

  bool operator==(const DynamicBitset& o) const;

 private:
  /// 1-bits at the meaningful positions of the last word.
  uint64_t TailMask() const {
    const std::size_t slack = words_.size() * 64 - num_bits_;
    return ~uint64_t{0} >> slack;  // slack < 64 whenever words_ nonempty
  }

  /// Asserts the equal-size precondition of binary ops (debug builds)
  /// and returns the shared word count.
  std::size_t SameSizeWords(BitSpan o) const {
    assert(o.num_bits == num_bits_ &&
           "DynamicBitset binary op requires equal-size operands");
    (void)o;
    return words_.size();
  }

  void TrimTail() {
    if (!words_.empty()) words_.back() &= TailMask();
  }

  std::size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace kplex

#endif  // KPLEX_UTIL_BITSET_H_
