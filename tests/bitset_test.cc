// Unit tests for the DynamicBitset kernel: the whole engine rests on
// these operations being exactly right, including word-boundary edges.

#include "util/bitset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace kplex {
namespace {

TEST(Bitset, SetResetTest) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Reset(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(Bitset, SetAllRespectsSize) {
  for (std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 200u}) {
    DynamicBitset b(n);
    b.SetAll();
    EXPECT_EQ(b.Count(), n) << "n=" << n;
  }
}

TEST(Bitset, FindFirstNext) {
  DynamicBitset b(200);
  EXPECT_EQ(b.FindFirst(), DynamicBitset::kNpos);
  b.Set(5);
  b.Set(64);
  b.Set(199);
  EXPECT_EQ(b.FindFirst(), 5u);
  EXPECT_EQ(b.FindNext(6), 64u);
  EXPECT_EQ(b.FindNext(65), 199u);
  EXPECT_EQ(b.FindNext(200), DynamicBitset::kNpos);
}

TEST(Bitset, ForEachVisitsAscending) {
  DynamicBitset b(300);
  std::vector<std::size_t> expected = {0, 1, 63, 64, 128, 250, 299};
  for (auto i : expected) b.Set(i);
  std::vector<std::size_t> seen;
  b.ForEach([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(Bitset, ResetDuringForEachIsSafe) {
  DynamicBitset b(128);
  for (std::size_t i = 0; i < 128; i += 2) b.Set(i);
  std::size_t visited = 0;
  b.ForEach([&](std::size_t i) {
    ++visited;
    b.Reset(i);
  });
  EXPECT_EQ(visited, 64u);
  EXPECT_TRUE(b.None());
}

TEST(Bitset, SetAlgebra) {
  DynamicBitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  b.Set(99);
  b.Set(3);

  DynamicBitset and_ab = a;
  and_ab.AndWith(b);
  EXPECT_EQ(and_ab.ToVector(), (std::vector<uint32_t>{50, 99}));

  DynamicBitset or_ab = a;
  or_ab.OrWith(b);
  EXPECT_EQ(or_ab.Count(), 4u);

  DynamicBitset diff = a;
  diff.AndNotWith(b);
  EXPECT_EQ(diff.ToVector(), (std::vector<uint32_t>{1}));

  EXPECT_EQ(a.AndCount(b), 2u);
  EXPECT_EQ(a.AndNotCount(b), 1u);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(and_ab.IsSubsetOf(diff));
  EXPECT_TRUE(and_ab.IsSubsetOf(b));
}

TEST(Bitset, ResetBelow) {
  DynamicBitset b(200);
  b.SetAll();
  b.ResetBelow(0);
  EXPECT_EQ(b.Count(), 200u);
  b.ResetBelow(1);
  EXPECT_EQ(b.Count(), 199u);
  EXPECT_EQ(b.FindFirst(), 1u);
  b.ResetBelow(64);
  EXPECT_EQ(b.FindFirst(), 64u);
  b.ResetBelow(65);
  EXPECT_EQ(b.FindFirst(), 65u);
  b.ResetBelow(500);
  EXPECT_TRUE(b.None());
}

TEST(Bitset, EqualityAndHash) {
  DynamicBitset a(77), b(77);
  a.Set(5);
  b.Set(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(6);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(Bitset, SetRange) {
  DynamicBitset b(300);
  b.SetRange(0, 0);  // empty range: no-op
  EXPECT_TRUE(b.None());
  b.SetRange(5, 6);  // single bit
  EXPECT_EQ(b.ToVector(), (std::vector<uint32_t>{5}));
  b.ResetAll();
  b.SetRange(60, 70);  // crosses one word boundary
  EXPECT_EQ(b.Count(), 10u);
  EXPECT_EQ(b.FindFirst(), 60u);
  EXPECT_FALSE(b.Test(59));
  EXPECT_TRUE(b.Test(69));
  EXPECT_FALSE(b.Test(70));
  b.ResetAll();
  b.SetRange(1, 300);  // spans full interior words + partial tail word
  EXPECT_EQ(b.Count(), 299u);
  EXPECT_FALSE(b.Test(0));
  b.ResetAll();
  b.SetRange(64, 128);  // exactly one aligned word
  EXPECT_EQ(b.Count(), 64u);
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(127));
  EXPECT_FALSE(b.Test(128));
}

// Regression: writes to slack bits of the tail word (indices in
// [num_bits, words*64)) used to be silently accepted by Set/Reset and
// could make two equal-content bitsets compare unequal and hash apart.
// Debug builds now assert the index range; release builds mask the tail
// in Count/Hash/operator== so even a corrupted slack bit cannot change
// observable equality.
TEST(Bitset, SlackBitsCannotBreakEquality) {
#ifndef NDEBUG
  DynamicBitset guarded(70);
  EXPECT_DEATH(guarded.Set(70), "out of range");
  EXPECT_DEATH(guarded.Set(127), "out of range");
  EXPECT_DEATH(guarded.Reset(100), "out of range");
  EXPECT_DEATH(guarded.Test(71), "out of range");
#else
  // Release build: simulate slack corruption through the mutable word
  // view a kernel could write (same backing layout) and confirm the
  // comparison surface is immune.
  DynamicBitset a(70), b(70);
  a.Set(3);
  b.Set(3);
  // Corrupt a slack bit of `a` via its span's backing words.
  auto* words = const_cast<uint64_t*>(a.AsSpan().words);
  words[1] |= uint64_t{1} << 20;  // bit 84: beyond num_bits, within word
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
#endif
}

TEST(Bitset, EqualityRequiresSameSize) {
  DynamicBitset a(70), b(77);
  EXPECT_FALSE(a == b);  // same content, different widths
}

// Randomized differential test against std::set semantics.
TEST(Bitset, RandomizedAgainstReferenceSet) {
  Rng rng(42);
  const std::size_t n = 193;  // deliberately not a multiple of 64
  DynamicBitset bits(n);
  std::set<std::size_t> reference;
  for (int step = 0; step < 3000; ++step) {
    std::size_t i = rng.NextBounded(n);
    switch (rng.NextBounded(3)) {
      case 0:
        bits.Set(i);
        reference.insert(i);
        break;
      case 1:
        bits.Reset(i);
        reference.erase(i);
        break;
      default:
        EXPECT_EQ(bits.Test(i), reference.count(i) > 0);
    }
    if (step % 500 == 0) {
      EXPECT_EQ(bits.Count(), reference.size());
      std::vector<uint32_t> expect(reference.begin(), reference.end());
      EXPECT_EQ(bits.ToVector(), expect);
    }
  }
}

}  // namespace
}  // namespace kplex
