// Tests for the word loops of util/bitset_kernels.h: every loop must
// agree with a reference that reads one bit at a time, on operands
// crossing word boundaries at three densities. Also covers the
// BitMatrix flat layout (row alignment, padding invariant, value
// semantics) and its rows as seed-graph adjacency.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/bit_matrix.h"
#include "util/bitset.h"
#include "util/bitset_kernels.h"
#include "util/rng.h"

namespace kplex {
namespace {

// Bit sizes straddling the interesting boundaries: empty, single word,
// word edges, a multi-word size on a 256-bit edge, and an odd large size.
constexpr std::size_t kSizes[] = {0, 1, 63, 64, 65, 255, 256, 1000};

// Random word array for `bits` bits with the trailing slack zeroed, as
// the loops' preconditions require. `density` in [0,1] thins the bits.
std::vector<uint64_t> RandomBits(std::size_t bits, Rng& rng, double density) {
  std::vector<uint64_t> words((bits + 63) / 64, 0);
  for (auto& w : words) {
    uint64_t v = rng.Next();
    if (density < 0.9) v &= rng.Next();   // ~25%
    if (density < 0.2) v &= rng.Next();   // ~12.5%
    w = v;
  }
  if (bits % 64 != 0 && !words.empty()) {
    words.back() &= ~uint64_t{0} >> (64 - bits % 64);
  }
  return words;
}

// ---- the per-bit reference: one bit per step, no word arithmetic ---------

bool Bit(const std::vector<uint64_t>& words, std::size_t i) {
  return (words[i / 64] >> (i % 64)) & 1;
}

std::size_t BitCount(std::size_t bits, bool (*keep)(bool, bool, bool),
                     const std::vector<uint64_t>& a,
                     const std::vector<uint64_t>& b,
                     const std::vector<uint64_t>& c) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    if (keep(Bit(a, i), Bit(b, i), Bit(c, i))) ++n;
  }
  return n;
}

TEST(BitsetKernels, CountKernelsMatchPortable) {
  // Full words: the largest count a word can add.
  const std::vector<uint64_t> full(16, ~uint64_t{0});
  EXPECT_EQ(kernels::Count(full.data(), full.size()), 1024u);
  Rng rng(7);
  for (std::size_t bits : kSizes) {
    for (double density : {0.1, 0.5, 1.0}) {
      for (int round = 0; round < 8; ++round) {
        const auto a = RandomBits(bits, rng, density);
        const auto b = RandomBits(bits, rng, density);
        const auto c = RandomBits(bits, rng, density);
        const std::size_t words = a.size();
        EXPECT_EQ(kernels::Count(a.data(), words),
                  BitCount(bits, [](bool x, bool, bool) { return x; }, a, b,
                           c))
            << "count bits=" << bits;
        EXPECT_EQ(kernels::AndCount(a.data(), b.data(), words),
                  BitCount(bits, [](bool x, bool y, bool) { return x && y; },
                           a, b, c))
            << "and_count bits=" << bits;
        EXPECT_EQ(kernels::AndNotCount(a.data(), b.data(), words),
                  BitCount(bits, [](bool x, bool y, bool) { return x && !y; },
                           a, b, c))
            << "andnot_count bits=" << bits;
        // Ranges ending inside, at and across word boundaries.
        for (std::size_t begin : {0, 1, 63, 64, 65, 130}) {
          for (std::size_t end : {begin, begin + 1, begin + 63, bits - 1,
                                  bits}) {
            if (begin > end || end > bits) continue;
            std::size_t expected = 0;
            for (std::size_t i = begin; i < end; ++i) {
              if (Bit(a, i) && Bit(b, i)) ++expected;
            }
            EXPECT_EQ(kernels::AndCountRange(a.data(), b.data(), begin, end),
                      expected)
                << "and_count_range bits=" << bits << " [" << begin << ", "
                << end << ")";
          }
        }
      }
    }
  }
}

TEST(BitsetKernels, MaterializingKernelsMatchPortable) {
  Rng rng(8);
  using IntoFn = void (*)(uint64_t*, const uint64_t*, std::size_t);
  struct Op {
    const char* what;
    IntoFn loop;
    bool (*bit)(bool, bool);  // the result bit from (dst, src)
  };
  const Op ops[] = {
      {"and_into", kernels::AndInto, [](bool d, bool s) { return d && s; }},
      {"or_into", kernels::OrInto, [](bool d, bool s) { return d || s; }},
      {"andnot_into", kernels::AndNotInto,
       [](bool d, bool s) { return d && !s; }},
  };
  for (std::size_t bits : kSizes) {
    for (double density : {0.1, 0.5, 1.0}) {
      for (int round = 0; round < 8; ++round) {
        const auto dst0 = RandomBits(bits, rng, density);
        const auto src = RandomBits(bits, rng, density);
        for (const Op& op : ops) {
          std::vector<uint64_t> expected(dst0.size(), 0);
          for (std::size_t i = 0; i < bits; ++i) {
            if (op.bit(Bit(dst0, i), Bit(src, i))) {
              expected[i / 64] |= uint64_t{1} << (i % 64);
            }
          }
          auto got = dst0;
          op.loop(got.data(), src.data(), got.size());
          EXPECT_EQ(got, expected) << op.what << " bits=" << bits;
        }
      }
    }
  }
}

TEST(BitsetKernels, PredicateKernelsMatchPortable) {
  Rng rng(9);
  for (std::size_t bits : kSizes) {
    for (double density : {0.1, 0.5, 1.0}) {
      for (int round = 0; round < 16; ++round) {
        auto a = RandomBits(bits, rng, density);
        const auto b = RandomBits(bits, rng, density);
        // Odd rounds force a ⊆ b so the true branch of subset (and the
        // false branch of intersects-with-complement) is exercised too.
        if (round % 2 == 1) {
          for (std::size_t i = 0; i < a.size(); ++i) a[i] &= b[i];
        }
        bool subset = true, intersects = false;
        for (std::size_t i = 0; i < bits; ++i) {
          if (Bit(a, i) && !Bit(b, i)) subset = false;
          if (Bit(a, i) && Bit(b, i)) intersects = true;
        }
        const std::size_t words = a.size();
        EXPECT_EQ(kernels::IsSubset(a.data(), b.data(), words), subset)
            << "subset bits=" << bits << " round=" << round;
        EXPECT_EQ(kernels::Intersects(a.data(), b.data(), words), intersects)
            << "intersects bits=" << bits << " round=" << round;
      }
    }
  }
}

TEST(BitsetKernels, SubsetAndIntersectsEdgeCases) {
  // Empty spans: vacuous subset, no intersection.
  EXPECT_TRUE(kernels::IsSubset(nullptr, nullptr, 0));
  EXPECT_FALSE(kernels::Intersects(nullptr, nullptr, 0));
  // A difference only in the last word of a multi-word operand.
  std::vector<uint64_t> a(16, 0), b(16, 0);
  a[15] = uint64_t{1} << 63;
  EXPECT_FALSE(kernels::IsSubset(a.data(), b.data(), a.size()));
  EXPECT_FALSE(kernels::Intersects(a.data(), b.data(), a.size()));
  b[15] = a[15];
  EXPECT_TRUE(kernels::IsSubset(a.data(), b.data(), a.size()));
  EXPECT_TRUE(kernels::Intersects(a.data(), b.data(), a.size()));
}

// ---- BitMatrix -----------------------------------------------------------

TEST(BitMatrix, RowsAre64ByteAligned) {
  BitMatrix m(5, 70);  // 70 bits -> 2 words -> stride rounds up to 8
  EXPECT_EQ(m.word_stride() % 8, 0u);
  EXPECT_EQ(m.word_stride(), 8u);
  for (uint32_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(r).words) % 64, 0u)
        << "row " << r;
    EXPECT_EQ(m.Row(r).num_bits, 70u) << "row " << r;
  }
}

TEST(BitMatrix, SetTestResetAndClearRow) {
  BitMatrix m(3, 130);
  EXPECT_FALSE(m.Test(1, 129));
  m.Set(1, 129);
  m.Set(1, 0);
  m.Set(2, 64);
  EXPECT_TRUE(m.Test(1, 129));
  EXPECT_TRUE(m.Test(1, 0));
  EXPECT_FALSE(m.Test(0, 0));
  EXPECT_EQ(m.Row(1).Count(), 2u);
  m.Reset(1, 0);
  EXPECT_EQ(m.Row(1).Count(), 1u);
  m.ClearRow(1);
  EXPECT_EQ(m.Row(1).Count(), 0u);
  EXPECT_TRUE(m.Test(2, 64));  // other rows untouched
}

TEST(BitMatrix, PaddingWordsStayZero) {
  // 70 columns use 2 words per row; the 6 padding words of each row,
  // and the bits past column 69 in its second word, must stay zero
  // through heavy mutation (whole-row fills too) so row kernels over
  // word-prefixes never see garbage.
  BitMatrix m(4, 70);
  Rng rng(11);
  for (int round = 0; round < 500; ++round) {
    const uint32_t r = static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t c = static_cast<uint32_t>(rng.NextBounded(70));
    switch (rng.NextBounded(5)) {
      case 0:
        m.FillRow(r);
        break;
      case 1:
      case 2:
        m.Set(r, c);
        break;
      default:
        m.Reset(r, c);
    }
  }
  m.FillRow(3);
  EXPECT_EQ(m.Row(3).Count(), 70u);
  for (uint32_t r = 0; r < m.rows(); ++r) {
    const uint64_t* row = m.Row(r).words;
    EXPECT_EQ(row[1] >> 6, 0u) << "row " << r << " bits past column 69";
    for (std::size_t w = 2; w < m.word_stride(); ++w) {
      EXPECT_EQ(row[w], 0u) << "row " << r << " padding word " << w;
    }
  }
}

TEST(BitMatrix, CopyAndMoveSemantics) {
  BitMatrix m(3, 100);
  m.Set(0, 99);
  m.Set(2, 50);

  BitMatrix copy(m);
  EXPECT_TRUE(copy.Test(0, 99));
  EXPECT_TRUE(copy.Test(2, 50));
  copy.Set(1, 1);
  EXPECT_FALSE(m.Test(1, 1));  // deep copy

  BitMatrix assigned;
  assigned = m;
  EXPECT_EQ(assigned.rows(), 3u);
  EXPECT_TRUE(assigned.Test(2, 50));

  BitMatrix moved(std::move(copy));
  EXPECT_TRUE(moved.Test(1, 1));
  EXPECT_EQ(copy.rows(), 0u);  // NOLINT(bugprone-use-after-move)

  assigned = std::move(moved);
  EXPECT_TRUE(assigned.Test(1, 1));
  EXPECT_TRUE(assigned.Test(0, 99));
}

TEST(BitMatrix, DuplicateSetIsIdempotent) {
  BitMatrix m(3, 3);
  m.Set(0, 1);
  m.Set(0, 1);
  m.Set(1, 0);
  EXPECT_TRUE(m.Test(0, 1));
  EXPECT_EQ(m.Row(0).Count(), 1u);
  EXPECT_EQ(m.Row(1).Count(), 1u);
  EXPECT_EQ(m.Row(2).Count(), 0u);
}

// Row counts over a range of a three-word row, the way a seed graph
// counts degrees within V_i: the range ends one bit past the first
// word boundary.
TEST(BitMatrix, RowRangeCountsCrossWordBoundaries) {
  BitMatrix m(130, 130);
  for (uint32_t v = 1; v < 130; ++v) {
    m.Set(0, v);
    m.Set(v, 0);
  }
  m.Set(1, 2);
  m.Set(2, 1);
  auto count_in_first_65 = [&](uint32_t v) {
    const uint64_t* row = m.Row(v).words;
    return kernels::AndCountRange(row, row, 0, 65);
  };
  EXPECT_EQ(m.Row(0).Count(), 129u);
  EXPECT_EQ(count_in_first_65(0), 64u);
  EXPECT_EQ(count_in_first_65(1), 2u);
  EXPECT_EQ(count_in_first_65(129), 1u);
}

TEST(BitMatrix, RowSpanComposesWithDynamicBitset) {
  BitMatrix m(2, 200);
  DynamicBitset mask(200);
  for (uint32_t c = 0; c < 200; c += 3) m.Set(0, c);
  for (uint32_t c = 0; c < 200; c += 2) mask.Set(c);
  // Multiples of 6 below 200: 0, 6, ..., 198.
  EXPECT_EQ(m.Row(0).AndCount(mask), 34u);
  EXPECT_EQ(mask.AndCount(m.Row(0)), 34u);
  DynamicBitset scratch = mask;
  scratch.AndWith(m.Row(0));
  EXPECT_EQ(scratch.Count(), 34u);
}

}  // namespace
}  // namespace kplex
