#include "core/pair_matrix.h"

#include <algorithm>

#include "core/seed_graph.h"

namespace kplex {
namespace {

int64_t MaxI64(int64_t a, int64_t b) { return a > b ? a : b; }

}  // namespace

// Theorem 5.13 (both endpoints in N^2_{G_i}(v_i)), appendix A.8:
//   adjacent:     common >= q - k - 2*max{k-2, 0}
//   non-adjacent: common >= q - k - 2*max{k-3, 0}
int64_t PairPruneMatrix::ThresholdN2N2(uint32_t k, uint32_t q,
                                       bool adjacent) {
  const int64_t kk = k, qq = q;
  if (adjacent) return qq - kk - 2 * MaxI64(kk - 2, 0);
  return qq - kk - 2 * MaxI64(kk - 3, 0);
}

// Theorem 5.14 (one endpoint in N^2, one in N^1), appendix A.9:
//   adjacent:     common >= q - (k+1) - max{k-2, 0} - (k-1)
//   non-adjacent: common >= q - (k+1) - max{k-2, 0} - max{k-3, 0}
int64_t PairPruneMatrix::ThresholdN2N1(uint32_t k, uint32_t q,
                                       bool adjacent) {
  const int64_t kk = k, qq = q;
  if (adjacent) return qq - (kk + 1) - MaxI64(kk - 2, 0) - (kk - 1);
  return qq - (kk + 1) - MaxI64(kk - 2, 0) - MaxI64(kk - 3, 0);
}

// Theorem 5.15 (both endpoints in N^1), appendix A.10:
//   adjacent:     common >= q - (k+2) - 2*(k-1)  ( = q - 3k )
//   non-adjacent: common >= q - (k+2) - 2*max{k-2, 0}
int64_t PairPruneMatrix::ThresholdN1N1(uint32_t k, uint32_t q,
                                       bool adjacent) {
  const int64_t kk = k, qq = q;
  if (adjacent) return qq - 3 * kk;
  return qq - (kk + 2) - 2 * MaxI64(kk - 2, 0);
}

PairPruneMatrix BuildPairMatrix(const SeedGraph& sg, uint32_t k,
                                uint32_t q) {
  PairPruneMatrix matrix;
  matrix.rows_ = BitMatrix(sg.num_vi, sg.universe);
  for (uint32_t u = 0; u < sg.num_vi; ++u) matrix.rows_.FillRow(u);

  // Common neighbors are always counted inside C_S = N_{G_i}(v_i); the
  // endpoints themselves can never be their own common neighbors, so the
  // C_S^- variants of Theorems 5.14/5.15 need no special handling.
  // N1 is the bit range [1, n1_end): a V_i vertex other than the seed
  // is in N1 or N2 by its index, and the count reads only the words
  // that cover N1.
  const uint32_t n1_end = 1 + sg.num_n1;
  for (uint32_t u = 1; u < sg.num_vi; ++u) {
    const uint64_t* row_u = sg.adj.Row(u).words;
    for (uint32_t v = u + 1; v < sg.num_vi; ++v) {
      const bool adjacent = sg.adj.Test(u, v);
      int64_t threshold;
      if (u >= n1_end) {  // and so is v > u: both in N2
        threshold = PairPruneMatrix::ThresholdN2N2(k, q, adjacent);
      } else if (v < n1_end) {  // and so is u < v: both in N1
        threshold = PairPruneMatrix::ThresholdN1N1(k, q, adjacent);
      } else {
        threshold = PairPruneMatrix::ThresholdN2N1(k, q, adjacent);
      }
      if (threshold <= 0) continue;
      const int64_t common = static_cast<int64_t>(kernels::AndCountRange(
          row_u, sg.adj.Row(v).words, 1, n1_end));
      if (common < threshold) {
        matrix.rows_.Reset(u, v);
        matrix.rows_.Reset(v, u);
        ++matrix.num_pruned_pairs_;
      }
    }
  }
  return matrix;
}

}  // namespace kplex
