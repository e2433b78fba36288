// Equivalence tests for the SIMD bitset-kernel dispatch: every entry of
// the dispatched table must agree bit-for-bit with the portable word
// loops on operands crossing word and vector-lane boundaries, and an
// end-to-end enumeration must produce an identical fingerprint whether
// it runs on the baseline or the dispatched kernels. Also covers the
// BitMatrix flat layout (row alignment, padding invariant, value
// semantics).

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "core/sink.h"
#include "graph/generators.h"
#include "util/bit_matrix.h"
#include "util/bitset.h"
#include "util/bitset_kernels.h"
#include "util/rng.h"

namespace kplex {
namespace {

// Bit sizes straddling the interesting boundaries: empty, single word,
// word edges, 256-bit AVX2 lane edges, and an odd large size.
constexpr std::size_t kSizes[] = {0, 1, 63, 64, 65, 255, 256, 1000};

// Random word array for `bits` bits with the trailing slack zeroed, as
// the kernel preconditions require. `density` in [0,1] thins the bits.
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

TEST(BitsetKernels, DispatchedTableIsSane) {
  const kernels::KernelTable& dispatched = kernels::Dispatched();
  EXPECT_NE(dispatched.name, nullptr);
  EXPECT_GE(dispatched.level, 0);
  EXPECT_LE(dispatched.level, 2);
  EXPECT_STREQ(kernels::DispatchedName(), dispatched.name);
  EXPECT_EQ(kernels::DispatchedLevel(), dispatched.level);
#ifdef KPLEX_NO_SIMD
  EXPECT_EQ(dispatched.level, 0);
  EXPECT_STREQ(dispatched.name, "portable");
#endif
  EXPECT_STREQ(kernels::Portable().name, "portable");
  EXPECT_EQ(kernels::Portable().level, 0);
}

TEST(BitsetKernels, CountKernelsMatchPortable) {
  const kernels::KernelTable& p = kernels::Portable();
  const kernels::KernelTable& d = kernels::Dispatched();
  Rng rng(7);
  for (std::size_t bits : kSizes) {
    for (double density : {0.1, 0.5, 1.0}) {
      for (int round = 0; round < 8; ++round) {
        const auto a = RandomBits(bits, rng, density);
        const auto b = RandomBits(bits, rng, density);
        const auto c = RandomBits(bits, rng, density);
        const std::size_t words = a.size();
        EXPECT_EQ(d.count(a.data(), words), p.count(a.data(), words))
            << "count bits=" << bits;
        EXPECT_EQ(d.and_count(a.data(), b.data(), words),
                  p.and_count(a.data(), b.data(), words))
            << "and_count bits=" << bits;
        EXPECT_EQ(d.and_count3(a.data(), b.data(), c.data(), words),
                  p.and_count3(a.data(), b.data(), c.data(), words))
            << "and_count3 bits=" << bits;
        EXPECT_EQ(d.andnot_count(a.data(), b.data(), words),
                  p.andnot_count(a.data(), b.data(), words))
            << "andnot_count bits=" << bits;
      }
    }
  }
}

TEST(BitsetKernels, MaterializingKernelsMatchPortable) {
  const kernels::KernelTable& p = kernels::Portable();
  const kernels::KernelTable& d = kernels::Dispatched();
  Rng rng(8);
  using IntoFn = void (*)(uint64_t*, const uint64_t*, std::size_t);
  struct Pair {
    const char* what;
    IntoFn portable;
    IntoFn dispatched;
  };
  const Pair pairs[] = {
      {"and_into", p.and_into, d.and_into},
      {"or_into", p.or_into, d.or_into},
      {"andnot_into", p.andnot_into, d.andnot_into},
      {"xor_into", p.xor_into, d.xor_into},
  };
  for (std::size_t bits : kSizes) {
    for (int round = 0; round < 8; ++round) {
      const auto dst0 = RandomBits(bits, rng, 0.5);
      const auto src = RandomBits(bits, rng, 0.5);
      for (const Pair& pair : pairs) {
        auto via_portable = dst0;
        auto via_dispatched = dst0;
        pair.portable(via_portable.data(), src.data(), via_portable.size());
        pair.dispatched(via_dispatched.data(), src.data(),
                        via_dispatched.size());
        EXPECT_EQ(via_portable, via_dispatched)
            << pair.what << " bits=" << bits;
      }
    }
  }
}

TEST(BitsetKernels, PredicateKernelsMatchPortable) {
  const kernels::KernelTable& p = kernels::Portable();
  const kernels::KernelTable& d = kernels::Dispatched();
  Rng rng(9);
  for (std::size_t bits : kSizes) {
    for (int round = 0; round < 16; ++round) {
      auto a = RandomBits(bits, rng, 0.3);
      const auto b = RandomBits(bits, rng, 0.3);
      // Odd rounds force a ⊆ b so the true branch of subset (and the
      // false branch of intersects-with-complement) is exercised too.
      if (round % 2 == 1) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] &= b[i];
      }
      const std::size_t words = a.size();
      EXPECT_EQ(d.subset(a.data(), b.data(), words),
                p.subset(a.data(), b.data(), words))
          << "subset bits=" << bits << " round=" << round;
      EXPECT_EQ(d.intersects(a.data(), b.data(), words),
                p.intersects(a.data(), b.data(), words))
          << "intersects bits=" << bits << " round=" << round;
    }
  }
}

TEST(BitsetKernels, SubsetAndIntersectsEdgeCases) {
  const kernels::KernelTable& d = kernels::Dispatched();
  // Empty spans: vacuous subset, no intersection.
  EXPECT_TRUE(d.subset(nullptr, nullptr, 0));
  EXPECT_FALSE(d.intersects(nullptr, nullptr, 0));
  // A difference only in the last word of a multi-lane operand.
  std::vector<uint64_t> a(16, 0), b(16, 0);
  a[15] = uint64_t{1} << 63;
  EXPECT_FALSE(d.subset(a.data(), b.data(), a.size()));
  EXPECT_FALSE(d.intersects(a.data(), b.data(), a.size()));
  b[15] = a[15];
  EXPECT_TRUE(d.subset(a.data(), b.data(), a.size()));
  EXPECT_TRUE(d.intersects(a.data(), b.data(), a.size()));
}

TEST(BitsetKernels, SetActiveForTestPinsAndRestores) {
  const kernels::KernelTable& before = kernels::Active();
  kernels::SetActiveForTest(&kernels::Portable());
  EXPECT_EQ(&kernels::Active(), &kernels::Portable());
  DynamicBitset a(130), b(130);
  a.Set(0);
  a.Set(129);
  b.Set(129);
  EXPECT_EQ(a.AndCount(b), 1u);
  kernels::SetActiveForTest(nullptr);
  EXPECT_EQ(&kernels::Active(), &kernels::Dispatched());
  EXPECT_EQ(&kernels::Active(), &before);  // tests start on Dispatched()
}

// ---- BitMatrix -----------------------------------------------------------

TEST(BitMatrix, RowsAre64ByteAligned) {
  BitMatrix m(5, 70);  // 70 bits -> 2 words -> stride rounds up to 8
  EXPECT_EQ(m.word_stride() % 8, 0u);
  EXPECT_EQ(m.word_stride(), 8u);
  for (uint32_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.Row(r).words) % 64, 0u)
        << "row " << r;
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

// ---- end-to-end: baseline and dispatched enumerate identically ----------

uint64_t FingerprintWithTable(const Graph& g, const EnumOptions& options,
                              const kernels::KernelTable* table) {
  kernels::SetActiveForTest(table);
  HashingSink sink;
  auto result = EnumerateMaximalKPlexes(g, options, sink);
  kernels::SetActiveForTest(nullptr);
  EXPECT_TRUE(result.ok());
  return sink.fingerprint();
}

TEST(BitsetKernels, EnumerationFingerprintMatchesAcrossTables) {
  const Graph g = GenerateBarabasiAlbert(300, 8, 13);
  for (auto [k, q] : {std::pair<uint32_t, uint32_t>{2, 6},
                      std::pair<uint32_t, uint32_t>{3, 8}}) {
    const EnumOptions options = EnumOptions::Ours(k, q);
    const uint64_t baseline =
        FingerprintWithTable(g, options, &kernels::Portable());
    const uint64_t dispatched =
        FingerprintWithTable(g, options, &kernels::Dispatched());
    EXPECT_EQ(baseline, dispatched) << "k=" << k << " q=" << q;
    EXPECT_NE(baseline, 0u);  // the workload actually produced plexes
  }
}

}  // namespace
}  // namespace kplex
