// Micro-benchmark for the paper's §3.1 claim that kd-tree-based intra-node
// search beats scanning an "array of BRs": searching a balanced kd-tree
// costs O(log n) comparisons and each boundary is checked once, while the
// array representation checks every child's box (boundaries tested
// redundantly). The flat-route variant runs the same kd search over the
// pointer-free preorder array the read paths use (FlatIndexNode::RouteBox).

#include <benchmark/benchmark.h>

#include <bit>

#include "common/rng.h"
#include "core/node.h"
#include "data/workload.h"

namespace ht {
namespace {

/// Balanced kd-tree over 2^depth children, splitting the unit cube on
/// round-robin dimensions.
std::unique_ptr<KdNode> BuildBalanced(uint32_t dim, int depth, const Box& br,
                                      uint32_t d, PageId* next_child) {
  if (depth == 0) {
    return KdNode::MakeLeaf((*next_child)++);
  }
  const float mid = br.lo(d) + (br.hi(d) - br.lo(d)) / 2;
  Box left = br;
  left.set_hi(d, mid);
  Box right = br;
  right.set_lo(d, mid);
  const uint32_t nd = (d + 1) % dim;
  return KdNode::MakeInternal(
      d, mid, mid, BuildBalanced(dim, depth - 1, left, nd, next_child),
      BuildBalanced(dim, depth - 1, right, nd, next_child));
}

IndexNode BalancedNode(uint32_t dim, int depth) {
  PageId next = 1;
  IndexNode node;
  node.level = 1;
  node.root = BuildBalanced(dim, depth, Box::UnitCube(dim), 0, &next);
  return node;
}

struct Fixture {
  IndexNode node;
  FlatIndexNode flat;          // the read paths' preorder-array form
  std::vector<Box> child_brs;  // the "array of BRs" representation
  std::vector<Box> queries;
  uint32_t dim;

  Fixture(uint32_t dim_in, int depth)
      : node(BalancedNode(dim_in, depth)),
        flat(node, dim_in, /*codec=*/nullptr),
        dim(dim_in) {
    std::vector<ChildRef> kids;
    node.CollectChildren(Box::UnitCube(dim), &kids);
    for (const auto& kid : kids) child_brs.push_back(kid.kd_br);
    Rng rng(8000 + dim + depth);
    for (int q = 0; q < 64; ++q) {
      std::vector<float> c(dim);
      for (auto& v : c) v = static_cast<float>(rng.NextDouble());
      queries.push_back(MakeBoxQuery(c, 0.15));
    }
  }
};

size_t KdSearch(const KdNode* n, const Box& q) {
  if (n->IsLeaf()) return 1;
  size_t hits = 0;
  if (q.lo(n->split_dim) <= n->lsp) hits += KdSearch(n->left.get(), q);
  if (q.hi(n->split_dim) >= n->rsp) hits += KdSearch(n->right.get(), q);
  return hits;
}

void BM_IntranodeKdTree(benchmark::State& state) {
  Fixture f(static_cast<uint32_t>(state.range(0)),
            static_cast<int>(state.range(1)));
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KdSearch(f.node.root.get(), f.queries[qi++ % f.queries.size()]));
  }
  state.SetLabel(std::to_string(f.child_brs.size()) + " children");
}

void BM_IntranodeArrayScan(benchmark::State& state) {
  Fixture f(static_cast<uint32_t>(state.range(0)),
            static_cast<int>(state.range(1)));
  size_t qi = 0;
  for (auto _ : state) {
    const Box& q = f.queries[qi++ % f.queries.size()];
    size_t hits = 0;
    for (const Box& br : f.child_brs) {
      if (q.Intersects(br)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel(std::to_string(f.child_brs.size()) + " children");
}

void BM_IntranodeFlatRoute(benchmark::State& state) {
  Fixture f(static_cast<uint32_t>(state.range(0)),
            static_cast<int>(state.range(1)));
  std::vector<uint64_t> reached((f.flat.num_children() + 63) / 64);
  size_t qi = 0;
  for (auto _ : state) {
    f.flat.RouteBox(f.queries[qi++ % f.queries.size()], reached.data());
    size_t hits = 0;
    for (const uint64_t w : reached) hits += std::popcount(w);
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel(std::to_string(f.child_brs.size()) + " children");
}

// Args: {dimensionality, kd depth} -> 2^depth children.
BENCHMARK(BM_IntranodeKdTree)
    ->Args({16, 5})
    ->Args({16, 7})
    ->Args({64, 5})
    ->Args({64, 7});
BENCHMARK(BM_IntranodeArrayScan)
    ->Args({16, 5})
    ->Args({16, 7})
    ->Args({64, 5})
    ->Args({64, 7});
BENCHMARK(BM_IntranodeFlatRoute)
    ->Args({16, 5})
    ->Args({16, 7})
    ->Args({64, 5})
    ->Args({64, 7});

}  // namespace
}  // namespace ht

BENCHMARK_MAIN();
