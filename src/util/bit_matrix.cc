#include "util/bit_matrix.h"

#include <cstring>
#include <new>
#include <utility>

namespace kplex {
namespace {

constexpr std::size_t kRowAlignWords = 8;  // 8 * 8 bytes = 64-byte rows

uint64_t* AllocateAligned(std::size_t words) {
  if (words == 0) return nullptr;
  void* p = ::operator new(words * sizeof(uint64_t), std::align_val_t{64});
  std::memset(p, 0, words * sizeof(uint64_t));
  return static_cast<uint64_t*>(p);
}

void FreeAligned(uint64_t* p) {
  if (p != nullptr) ::operator delete(p, std::align_val_t{64});
}

}  // namespace

BitMatrix::BitMatrix(uint32_t rows, uint32_t cols)
    : rows_(rows), cols_(cols) {
  const std::size_t words = (static_cast<std::size_t>(cols) + 63) / 64;
  stride_ = (words + kRowAlignWords - 1) / kRowAlignWords * kRowAlignWords;
  if (rows_ > 0 && stride_ == 0) stride_ = kRowAlignWords;  // 0-col rows
  data_ = AllocateAligned(static_cast<std::size_t>(rows_) * stride_);
}

BitMatrix::~BitMatrix() { FreeAligned(data_); }

BitMatrix::BitMatrix(const BitMatrix& o)
    : rows_(o.rows_), cols_(o.cols_), stride_(o.stride_) {
  const std::size_t words = static_cast<std::size_t>(rows_) * stride_;
  data_ = AllocateAligned(words);
  if (words > 0) std::memcpy(data_, o.data_, words * sizeof(uint64_t));
}

BitMatrix& BitMatrix::operator=(const BitMatrix& o) {
  if (this == &o) return *this;
  BitMatrix copy(o);
  *this = std::move(copy);
  return *this;
}

BitMatrix::BitMatrix(BitMatrix&& o) noexcept
    : rows_(o.rows_), cols_(o.cols_), stride_(o.stride_), data_(o.data_) {
  o.rows_ = 0;
  o.cols_ = 0;
  o.stride_ = 0;
  o.data_ = nullptr;
}

BitMatrix& BitMatrix::operator=(BitMatrix&& o) noexcept {
  if (this == &o) return *this;
  FreeAligned(data_);
  rows_ = o.rows_;
  cols_ = o.cols_;
  stride_ = o.stride_;
  data_ = o.data_;
  o.rows_ = 0;
  o.cols_ = 0;
  o.stride_ = 0;
  o.data_ = nullptr;
  return *this;
}

void BitMatrix::ClearRow(uint32_t r) {
  assert(r < rows_ && "BitMatrix::ClearRow out of range");
  std::memset(data_ + r * stride_, 0, stride_ * sizeof(uint64_t));
}

void BitMatrix::FillRow(uint32_t r) {
  assert(r < rows_ && "BitMatrix::FillRow out of range");
  uint64_t* row = data_ + r * stride_;
  const std::size_t full = cols_ / 64;
  std::memset(row, 0xff, full * sizeof(uint64_t));
  if (cols_ % 64 != 0) row[full] = ~uint64_t{0} >> (64 - cols_ % 64);
}

}  // namespace kplex
