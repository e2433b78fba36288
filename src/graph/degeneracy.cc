#include "graph/degeneracy.h"

#include <algorithm>
#include <cstdint>

namespace kplex {
namespace {

constexpr uint32_t kPeeled = UINT32_MAX;

// A 4-ary min-heap of the unpeeled vertices, keyed by
// (current degree << 32) | id, with pos_[v] = v's slot (kPeeled once v
// is out). Keys are distinct, so the root is always the least
// (degree, id) pair: the vertex the paper peels next. A degree
// decrement is a decrease-key in place, so the heap never holds more
// than n entries and none of them is stale.
class PeelHeap {
 public:
  explicit PeelHeap(const Graph& graph)
      : size_(graph.NumVertices()), keys_(size_), pos_(size_) {
    for (VertexId v = 0; v < size_; ++v) {
      keys_[v] = (static_cast<uint64_t>(graph.Degree(v)) << 32) | v;
      pos_[v] = v;
    }
    // Floyd's heapify: sift down every slot that has a child, the last
    // of which is (n - 2) / 4.
    for (std::size_t i = (size_ + 2) / 4; i-- > 0;) SiftDown(i, keys_[i]);
  }

  bool empty() const { return size_ == 0; }

  /// Removes the root and returns its key.
  uint64_t Pop() {
    const uint64_t top = keys_[0];
    pos_[static_cast<uint32_t>(top)] = kPeeled;
    if (--size_ > 0) SiftDown(0, keys_[size_]);
    return top;
  }

  /// Lowers v's degree by one unless v is already peeled.
  void Decrement(VertexId v) {
    const uint32_t i = pos_[v];
    if (i != kPeeled) SiftUp(i, keys_[i] - (uint64_t{1} << 32));
  }

 private:
  // Both sifts move a hole from slot i and drop `key` where it stops.
  void SiftUp(std::size_t i, uint64_t key) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (keys_[parent] < key) break;
      Put(i, keys_[parent]);
      i = parent;
    }
    Put(i, key);
  }

  void SiftDown(std::size_t i, uint64_t key) {
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= size_) break;
      const std::size_t end = std::min(first + 4, size_);
      std::size_t least = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (keys_[c] < keys_[least]) least = c;
      }
      if (key < keys_[least]) break;
      Put(i, keys_[least]);
      i = least;
    }
    Put(i, key);
  }

  void Put(std::size_t i, uint64_t key) {
    keys_[i] = key;
    pos_[static_cast<uint32_t>(key)] = static_cast<uint32_t>(i);
  }

  std::size_t size_;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> pos_;
};

}  // namespace

DegeneracyResult ComputeDegeneracy(const Graph& graph) {
  const std::size_t n = graph.NumVertices();
  DegeneracyResult result;
  result.order.reserve(n);
  result.rank.assign(n, 0);
  result.coreness.assign(n, 0);

  PeelHeap heap(graph);
  uint32_t max_core = 0;
  while (!heap.empty()) {
    const uint64_t key = heap.Pop();
    const VertexId v = static_cast<VertexId>(key);
    max_core = std::max(max_core, static_cast<uint32_t>(key >> 32));
    result.coreness[v] = max_core;
    result.rank[v] = static_cast<uint32_t>(result.order.size());
    result.order.push_back(v);
    for (VertexId u : graph.Neighbors(v)) heap.Decrement(u);
  }
  result.degeneracy = max_core;
  OrientByRank(graph, result);
  return result;
}

void OrientByRank(const Graph& graph, DegeneracyResult& result) {
  const std::size_t n = graph.NumVertices();
  std::vector<VertexId>& later = result.later_neighbors;
  result.later_offsets.resize(n + 1);
  later.clear();
  // m entries when the rows are symmetric; a loaded snapshot's rows are
  // not checked for symmetry, so the list grows rather than trusting m.
  later.reserve(graph.NumEdges());
  for (VertexId v = 0; v < n; ++v) {
    result.later_offsets[v] = later.size();
    const uint32_t rank = result.rank[v];
    for (VertexId u : graph.Neighbors(v)) {
      if (result.rank[u] > rank) later.push_back(u);
    }
  }
  result.later_offsets[n] = later.size();
}

}  // namespace kplex
