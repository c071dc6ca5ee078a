// Copyright 2026 The HybridTree Authors.
// The query loops of the tree baselines (R*-, SR-, X-, KDB- and hB-tree),
// written once: the depth-first box search, the depth-first range search
// and the best-first k-NN. A structure hands them a Nav that holds only
// what differs between the trees:
//
//   Node, Region     the decoded directory node, and what travels with a
//                    child besides its page: NoRegion, or the kd region
//                    that bounds it in the KDB- and hB-trees;
//   kVisitOnce       true when several kd leaves may reference one child
//                    (the hB-tree): a page is then read once per query;
//   root(), size(), RootRegion()
//   Read(page, on_rows, on_dir)
//                    reads one node: a data node's rows go to
//                    on_rows(rows), where rows.count(), rows.vec(i) and
//                    rows.id(i) read them as a DataPageScan does; a
//                    directory node is decoded, its pages unpinned, and
//                    handed to on_dir(node);
//   BoxChildren(node, query, emit)
//                    emit(child) for each child the box may reach, in
//                    entry order;
//   DistChildren(node, region, center, metric, emit)
//                    emit(bound, child, child_region) for every child, in
//                    entry order; bound lower-bounds the distance from
//                    center to any row beneath the child.
//
// Range search enters a child whose bound is <= the radius. The k-NN keeps
// a min-heap frontier of pages by bound and a max-heap of the k best
// (distance, id) pairs: a row replaces the worst only when strictly
// closer, a child is pushed and a page popped only while its bound is
// <= the current k-th distance, and the answer is in (distance, id) order.

#pragma once

#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/node.h"
#include "geometry/box.h"
#include "geometry/metrics.h"
#include "storage/buffer_pool.h"

namespace ht::tree_search {

/// The Region of a tree whose directory entries carry their own bounds.
struct NoRegion {};

/// Nav::Read for a tree whose nodes are single pages: a data page's rows
/// are read in place, and a directory page goes through `decode` and is
/// unpinned before on_dir runs.
template <class Decode, class OnRows, class OnDir>
Status ReadPage(BufferPool& pool, uint32_t dim, PageId page, Decode&& decode,
                OnRows&& on_rows, OnDir&& on_dir) {
  HT_ASSIGN_OR_RETURN(PageHandle h, pool.Fetch(page));
  if (PeekNodeKind(h.data()) == NodeKind::kData) {
    DataPageScan scan(h.data(), h.size(), dim);
    if (!scan.ok()) return Status::Corruption("expected data page");
    on_rows(scan);
    return Status::OK();
  }
  HT_ASSIGN_OR_RETURN(auto node, decode(h.data(), h.size()));
  h.Release();
  return on_dir(node);
}

/// The Nav of the KDB- and hB-trees: one page per node, and a directory
/// page's kd-tree splits with lsp == rsp. A box enters the left side when
/// its lo is <= lsp and the right side when its hi is > lsp; range and
/// k-NN bound a child by the MINDIST to the region of the kd leaf that
/// reaches it. kVisitOnce is the hB-tree, whose posted splits leave one
/// child under several kd leaves: no one leaf's region bounds such a
/// child, so every hB child's own kd regions are clipped from the unit
/// cube (as GraftChains clips them), where a KDB child's are clipped from
/// its one parent leaf's.
template <bool kVisitOnceV>
class KdNav {
 public:
  using Node = IndexNode;
  using Region = Box;
  static constexpr bool kVisitOnce = kVisitOnceV;

  KdNav(BufferPool* pool, uint32_t dim, PageId root, uint64_t size)
      : pool_(pool), dim_(dim), root_(root), size_(size) {}

  PageId root() const { return root_; }
  uint64_t size() const { return size_; }
  const Box& RootRegion() const { return unit_; }

  template <class OnRows, class OnDir>
  Status Read(PageId page, OnRows&& on_rows, OnDir&& on_dir) const {
    return ReadPage(
        *pool_, dim_, page,
        [this](const uint8_t* data, size_t size) {
          return IndexNode::Deserialize(data, size, /*els_in_page=*/false, 0,
                                        dim_);
        },
        on_rows, on_dir);
  }

  template <class Emit>
  static Status BoxChildren(const IndexNode& node, const Box& query,
                            Emit&& emit) {
    return BoxWalk(*node.root, query, emit);
  }

  template <class Emit>
  Status DistChildren(const IndexNode& node, const Box& region,
                      std::span<const float> center,
                      const DistanceMetric& metric, Emit&& emit) const {
    return DistWalk(*node.root, region, center, metric, emit);
  }

 private:
  template <class Emit>
  static Status BoxWalk(const KdNode& n, const Box& query, Emit& emit) {
    if (n.IsLeaf()) return emit(n.child);
    if (query.lo(n.split_dim) <= n.lsp) {
      HT_RETURN_NOT_OK(BoxWalk(*n.left, query, emit));
    }
    if (query.hi(n.split_dim) > n.lsp) {
      HT_RETURN_NOT_OK(BoxWalk(*n.right, query, emit));
    }
    return Status::OK();
  }

  template <class Emit>
  Status DistWalk(const KdNode& n, const Box& region,
                  std::span<const float> center, const DistanceMetric& metric,
                  Emit& emit) const {
    if (n.IsLeaf()) {
      return emit(metric.MinDistToBox(center, region), n.child,
                  kVisitOnce ? unit_ : region);
    }
    HT_RETURN_NOT_OK(
        DistWalk(*n.left, KdLeftBr(region, n), center, metric, emit));
    return DistWalk(*n.right, KdRightBr(region, n), center, metric, emit);
  }

  BufferPool* pool_;
  uint32_t dim_;
  PageId root_;
  uint64_t size_;
  Box unit_ = Box::UnitCube(dim_);
};

namespace detail {

/// The pages a query has read, kept only for a kVisitOnce tree.
template <bool kVisitOnce>
struct Visits {
  static bool First(PageId) { return true; }
};
template <>
struct Visits<true> {
  std::unordered_set<PageId> seen;
  bool First(PageId page) { return seen.insert(page).second; }
};

template <class Nav>
struct BoxSearch {
  Nav& nav;
  const Box& query;
  std::vector<uint64_t> out;
  Visits<Nav::kVisitOnce> visits;

  Status Visit(PageId page) {
    if (!visits.First(page)) return Status::OK();
    return nav.Read(
        page,
        [this](const auto& rows) {
          for (size_t i = 0; i < rows.count(); ++i) {
            if (query.ContainsPoint(rows.vec(i))) out.push_back(rows.id(i));
          }
        },
        [this](const typename Nav::Node& node) {
          return nav.BoxChildren(node, query,
                                 [this](PageId child) { return Visit(child); });
        });
  }
};

template <class Nav>
struct RangeSearch {
  using Region = typename Nav::Region;
  Nav& nav;
  std::span<const float> center;
  double radius;
  const DistanceMetric& metric;
  std::vector<uint64_t> out;
  Visits<Nav::kVisitOnce> visits;

  Status Visit(PageId page, const Region& region) {
    if (!visits.First(page)) return Status::OK();
    return nav.Read(
        page,
        [this](const auto& rows) {
          for (size_t i = 0; i < rows.count(); ++i) {
            if (metric.Distance(center, rows.vec(i)) <= radius) {
              out.push_back(rows.id(i));
            }
          }
        },
        [this, &region](const typename Nav::Node& node) {
          return nav.DistChildren(
              node, region, center, metric,
              [this](double bound, PageId child, const Region& child_region) {
                return bound <= radius ? Visit(child, child_region)
                                       : Status::OK();
              });
        });
  }
};

}  // namespace detail

/// Ids of the rows inside `query` (a closed box), in depth-first order.
template <class Nav>
Result<std::vector<uint64_t>> SearchBox(Nav nav, const Box& query) {
  detail::BoxSearch<Nav> search{nav, query, {}, {}};
  HT_RETURN_NOT_OK(search.Visit(nav.root()));
  return std::move(search.out);
}

/// Ids of the rows within `radius` of `center`, in depth-first order.
template <class Nav>
Result<std::vector<uint64_t>> SearchRange(Nav nav,
                                          std::span<const float> center,
                                          double radius,
                                          const DistanceMetric& metric) {
  detail::RangeSearch<Nav> search{nav, center, radius, metric, {}, {}};
  HT_RETURN_NOT_OK(search.Visit(nav.root(), nav.RootRegion()));
  return std::move(search.out);
}

/// The k rows nearest `center`, in (distance, id) order.
template <class Nav>
Result<std::vector<std::pair<double, uint64_t>>> SearchKnn(
    Nav nav, std::span<const float> center, size_t k,
    const DistanceMetric& metric) {
  using Region = typename Nav::Region;
  std::vector<std::pair<double, uint64_t>> results;
  if (k == 0 || nav.size() == 0) return results;
  struct Pending {
    double dist;
    PageId page;
    Region region;
    bool operator>(const Pending& o) const { return dist > o.dist; }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      frontier;
  frontier.push(Pending{0.0, nav.root(), nav.RootRegion()});
  std::priority_queue<std::pair<double, uint64_t>> best;
  detail::Visits<Nav::kVisitOnce> visits;
  auto kth = [&]() {
    return best.size() < k ? std::numeric_limits<double>::max()
                           : best.top().first;
  };
  while (!frontier.empty() && frontier.top().dist <= kth()) {
    const Pending item = frontier.top();
    frontier.pop();
    if (!visits.First(item.page)) continue;
    HT_RETURN_NOT_OK(nav.Read(
        item.page,
        [&](const auto& rows) {
          for (size_t i = 0; i < rows.count(); ++i) {
            const double d = metric.Distance(center, rows.vec(i));
            if (best.size() < k) {
              best.emplace(d, rows.id(i));
            } else if (d < best.top().first) {
              best.pop();
              best.emplace(d, rows.id(i));
            }
          }
        },
        [&](const typename Nav::Node& node) {
          return nav.DistChildren(
              node, item.region, center, metric,
              [&](double bound, PageId child, const Region& child_region) {
                if (bound <= kth()) {
                  frontier.push(Pending{bound, child, child_region});
                }
                return Status::OK();
              });
        }));
  }
  results.resize(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    results[i] = best.top();
    best.pop();
  }
  return results;
}

}  // namespace ht::tree_search
