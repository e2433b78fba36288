// BitMatrix: a dense 2-D bit array stored as ONE contiguous uint64_t
// buffer with a fixed word stride per row, rows aligned to 64 bytes.
//
// A seed graph's adjacency matrix is one, and so is its pair-pruning
// matrix T: the branch-and-bound inner loops walk many rows in
// sequence, and a flat buffer keeps them on consecutive cache lines
// instead of chasing one heap pointer per row (the old
// vector<DynamicBitset> layout). The stride is rounded up to 8 words
// (64 bytes) so every row starts on a cache-line boundary.
//
// Rows present as BitSpan views, so they flow straight into the word
// loops of util/bitset_kernels.h. Invariant: bits at
// column >= cols() and the padding words between ceil(cols/64) and the
// stride are zero — Set/Reset assert the column range in debug builds.

#ifndef KPLEX_UTIL_BIT_MATRIX_H_
#define KPLEX_UTIL_BIT_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "util/bitset_kernels.h"

namespace kplex {

class BitMatrix {
 public:
  BitMatrix() = default;
  /// rows x cols, all bits clear.
  BitMatrix(uint32_t rows, uint32_t cols);
  ~BitMatrix();

  BitMatrix(const BitMatrix& o);
  BitMatrix& operator=(const BitMatrix& o);
  BitMatrix(BitMatrix&& o) noexcept;
  BitMatrix& operator=(BitMatrix&& o) noexcept;

  uint32_t rows() const { return rows_; }
  uint32_t cols() const { return cols_; }
  /// Words per row; a multiple of 8 (64-byte row alignment).
  std::size_t word_stride() const { return stride_; }

  BitSpan Row(uint32_t r) const {
    assert(r < rows_ && "BitMatrix::Row out of range");
    return BitSpan{data_ + r * stride_, cols_};
  }

  bool Test(uint32_t r, uint32_t c) const { return Row(r).Test(c); }
  void Set(uint32_t r, uint32_t c) { Word(r, c) |= uint64_t{1} << (c & 63); }
  void Reset(uint32_t r, uint32_t c) {
    Word(r, c) &= ~(uint64_t{1} << (c & 63));
  }

  /// Zeroes every bit of row r (padding words stay zero by invariant).
  void ClearRow(uint32_t r);

  /// Sets every bit of row r, columns [0, cols) only.
  void FillRow(uint32_t r);

 private:
  uint64_t& Word(uint32_t r, uint32_t c) {
    assert(r < rows_ && c < cols_ && "BitMatrix::Set/Reset out of range");
    return data_[r * stride_ + (c >> 6)];
  }

  uint32_t rows_ = 0;
  uint32_t cols_ = 0;
  std::size_t stride_ = 0;     // words per row, multiple of 8
  uint64_t* data_ = nullptr;   // 64-byte aligned, rows_ * stride_ words
};

}  // namespace kplex

#endif  // KPLEX_UTIL_BIT_MATRIX_H_
