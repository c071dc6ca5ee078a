#include "core/bulk_load.h"

#include <algorithm>
#include <functional>
#include <cmath>
#include <numeric>

#include "core/split.h"
#include "exec/thread_pool.h"

namespace ht {

namespace {

/// Leaves are packed to this fraction of a data page's capacity, clamped
/// to [data_node_min_util, 1]: room for a few inserts before the first
/// split.
constexpr double kBulkLeafFill = 0.9;

/// A built subtree: its page, its exact live box, and its tree level.
struct Built {
  PageId page = kInvalidPageId;
  Box live;
};

/// Live bounding box of a subset of rows.
Box SubsetLiveBr(const Dataset& data, const std::vector<uint32_t>& ids) {
  Box br = Box::Empty(data.dim());
  for (uint32_t i : ids) br.ExtendToInclude(data.Row(i));
  return br;
}

}  // namespace

/// One partition step (contract in bulk_load.h): the cut is positioned so
/// a multiple of target_leaf lands on the left (downstream leaves pack
/// tightly). Both the serial and the parallel loader call it — and so does
/// the serve layer's kd-region sharder — which is what makes every
/// consumer's result independent of thread count.
size_t PartitionSubset(const Dataset& data, const HybridTreeOptions& options,
                       size_t capacity, size_t target_leaf,
                       std::vector<uint32_t>& ids) {
  const size_t n_leaves = (ids.size() + target_leaf - 1) / target_leaf;
  const Box live = SubsetLiveBr(data, ids);
  uint32_t dim = live.MaxExtentDim();
  if (options.split_policy == SplitPolicy::kVamSplit) {
    double best_var = -1.0;
    for (uint32_t d = 0; d < options.dim; ++d) {
      double mean = 0.0;
      for (uint32_t i : ids) mean += data.Row(i)[d];
      mean /= static_cast<double>(ids.size());
      double var = 0.0;
      for (uint32_t i : ids) {
        const double diff = data.Row(i)[d] - mean;
        var += diff * diff;
      }
      if (var > best_var) {
        best_var = var;
        dim = d;
      }
    }
  }
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return data.Row(a)[dim] < data.Row(b)[dim];
  });
  const size_t left_leaves = std::max<size_t>(1, n_leaves / 2);
  const size_t target_cut = std::clamp<size_t>(
      ids.size() * left_leaves / n_leaves, 1, ids.size() - 1);
  // Keep duplicates of the boundary value together (clean split): take
  // whichever tie-free cut (advancing or retreating) stays closer to the
  // target.
  size_t fwd = target_cut;
  while (fwd < ids.size() &&
         data.Row(ids[fwd])[dim] == data.Row(ids[fwd - 1])[dim]) {
    ++fwd;
  }
  size_t bwd = target_cut;
  while (bwd > 1 &&
         data.Row(ids[bwd])[dim] == data.Row(ids[bwd - 1])[dim]) {
    --bwd;
  }
  size_t cut = (fwd >= ids.size() ||
                (bwd > 1 && target_cut - bwd <= fwd - target_cut))
                   ? bwd
                   : fwd;
  // A huge duplicate block can leave either clean cut with an under-
  // filled side; fall back to splitting the block by count (overlapping
  // identical values, same handling as the dynamic degenerate split).
  const size_t floor_entries = std::max<size_t>(
      1, static_cast<size_t>(options.data_node_min_util *
                             static_cast<double>(capacity)));
  if (cut < floor_entries || ids.size() - cut < floor_entries) {
    cut = ids.size() / 2;
  }
  return cut;
}

namespace {

/// A pending subset in the parallel loader's breadth-first partition: the
/// rows plus the left/right path (0 = left) taken from the root cut.
/// Terminal subsets sorted by path reproduce the serial loader's
/// depth-first leaf order exactly.
struct PartitionTask {
  std::vector<uint8_t> path;
  std::vector<uint32_t> ids;
};

/// Parallel stage 1: partitions `data` into packed leaf subsets with
/// breadth-first rounds over a thread pool (each round cuts every active
/// subset concurrently), then allocates the leaves' page ids serially —
/// the same ascending run the serial loader gets — and fans the
/// serialize-and-write work out in disjoint contiguous chunks, one direct
/// PagedFile::WriteBatch per worker.
Status BuildLeavesParallel(const HybridTreeOptions& options, PagedFile* file,
                           const Dataset& data, size_t capacity,
                           size_t target_leaf, size_t threads,
                           std::vector<Built>* level) {
  ThreadPool pool(threads);
  std::vector<PartitionTask> frontier(1);
  frontier[0].ids.resize(data.size());
  std::iota(frontier[0].ids.begin(), frontier[0].ids.end(), 0u);
  std::vector<PartitionTask> leaves;
  while (!frontier.empty()) {
    std::vector<PartitionTask> active;
    for (PartitionTask& t : frontier) {
      const size_t n_leaves = (t.ids.size() + target_leaf - 1) / target_leaf;
      if (n_leaves <= 1 && t.ids.size() <= capacity) {
        leaves.push_back(std::move(t));
      } else {
        active.push_back(std::move(t));
      }
    }
    // Two children per active task, written into preallocated slots so the
    // workers never touch shared containers.
    std::vector<PartitionTask> children(active.size() * 2);
    for (size_t i = 0; i < active.size(); ++i) {
      HT_RETURN_NOT_OK(pool.Submit([&, i]() -> Status {
        PartitionTask& t = active[i];
        const size_t cut =
            PartitionSubset(data, options, capacity, target_leaf, t.ids);
        PartitionTask& left = children[2 * i];
        PartitionTask& right = children[2 * i + 1];
        left.path = t.path;
        left.path.push_back(0);
        left.ids.assign(t.ids.begin(),
                        t.ids.begin() + static_cast<ptrdiff_t>(cut));
        right.path = std::move(t.path);
        right.path.push_back(1);
        right.ids.assign(t.ids.begin() + static_cast<ptrdiff_t>(cut),
                         t.ids.end());
        return Status::OK();
      }));
    }
    HT_RETURN_NOT_OK(pool.Wait());
    frontier = std::move(children);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const PartitionTask& a, const PartitionTask& b) {
              return a.path < b.path;
            });

  std::vector<PageId> pages(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    HT_ASSIGN_OR_RETURN(pages[i], file->Allocate());
  }
  level->resize(leaves.size());
  const size_t chunk = (leaves.size() + threads - 1) / threads;
  for (size_t begin = 0; begin < leaves.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, leaves.size());
    HT_RETURN_NOT_OK(pool.Submit([&, begin, end]() -> Status {
      std::vector<Page> bufs;
      bufs.reserve(end - begin);
      std::vector<PageId> ids;
      ids.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        DataNode node;
        node.entries.reserve(leaves[i].ids.size());
        for (uint32_t r : leaves[i].ids) {
          auto row = data.Row(r);
          node.entries.push_back(
              DataEntry{r, std::vector<float>(row.begin(), row.end())});
        }
        bufs.emplace_back(file->page_size());
        node.Serialize(bufs.back().data(), bufs.back().size(), options.dim);
        ids.push_back(pages[i]);
        (*level)[i] = Built{pages[i], node.ComputeLiveBr(options.dim)};
      }
      std::vector<const Page*> ptrs;
      ptrs.reserve(bufs.size());
      for (const Page& p : bufs) ptrs.push_back(&p);
      return file->WriteBatch(ids, ptrs);
    }));
  }
  return pool.Wait();
}

}  // namespace

Result<std::unique_ptr<HybridTree>> BulkLoad(const HybridTreeOptions& options,
                                             PagedFile* file,
                                             const Dataset& data,
                                             const BulkLoadOptions& bulk) {
  // Bulk loading is a one-pass write stream: tag it so a bounded SLRU pool
  // keeps it out of the protected segment.
  AccessClassScope ac(AccessClass::kIngest);
  if (data.dim() != options.dim) {
    return Status::InvalidArgument("dataset dimensionality mismatch");
  }
  for (size_t i = 0; i < data.size(); ++i) {
    if (!InUnitCube(data.Row(i))) {
      return Status::InvalidArgument(
          "bulk data outside the normalized feature space [0,1]^dim");
    }
  }
  // Create() builds the metadata page and an empty root data page; the
  // loader then fills pages bottom-up and repoints the root.
  HT_ASSIGN_OR_RETURN(auto tree, HybridTree::Create(options, file));
  if (data.size() == 0) return tree;
  // The loader is the tree's only client until it returns: it writes index
  // nodes and the metadata page directly, so it holds the exclusive role
  // for the whole build. (Stage-1 worker threads only partition rows and
  // serialize fresh pages; they never touch annotated tree state.)
  ExclusiveRole role(&tree->rw_contract_);

  const size_t capacity = tree->data_capacity_;
  const double fill =
      std::clamp(kBulkLeafFill, options.data_node_min_util, 1.0);
  const size_t target_leaf =
      std::max<size_t>(1, static_cast<size_t>(fill * capacity));

  // --- Stage 1: recursive EDA-guided partitioning into packed leaves. -----
  // Leaves come out in kd order, so contiguous runs are spatially coherent.
  std::vector<Built> level;  // leaves in partition order

  if (bulk.threads > 1) {
    HT_RETURN_NOT_OK(BuildLeavesParallel(options, file, data, capacity,
                                         target_leaf, bulk.threads, &level));
  } else {
    std::vector<uint32_t> all(data.size());
    std::iota(all.begin(), all.end(), 0u);

    std::function<Status(std::vector<uint32_t>&)> build_leaves =
        [&](std::vector<uint32_t>& ids) -> Status {
      // L leaves of ~n/L entries each; recursion stops at L == 1. Splitting
      // at the (L/2)-leaf boundary spreads the remainder across all leaves
      // instead of dumping it into an under-filled tail leaf.
      const size_t n_leaves = (ids.size() + target_leaf - 1) / target_leaf;
      if (n_leaves <= 1 && ids.size() <= capacity) {
        DataNode node;
        node.entries.reserve(ids.size());
        for (uint32_t i : ids) {
          auto row = data.Row(i);
          node.entries.push_back(
              DataEntry{i, std::vector<float>(row.begin(), row.end())});
        }
        HT_ASSIGN_OR_RETURN(PageHandle h, tree->pool_->New());
        node.Serialize(h.data(), h.size(), options.dim);
        h.MarkDirty();
        level.push_back(Built{h.id(), node.ComputeLiveBr(options.dim)});
        return Status::OK();
      }
      const size_t cut =
          PartitionSubset(data, options, capacity, target_leaf, ids);
      std::vector<uint32_t> left(ids.begin(),
                                 ids.begin() + static_cast<ptrdiff_t>(cut));
      std::vector<uint32_t> right(ids.begin() + static_cast<ptrdiff_t>(cut),
                                  ids.end());
      ids.clear();
      ids.shrink_to_fit();
      HT_RETURN_NOT_OK(build_leaves(left));
      return build_leaves(right);
    };
    HT_RETURN_NOT_OK(build_leaves(all));
  }

  // --- Stage 2: build index levels over contiguous runs. ------------------
  // Children per node are limited by serialized size; estimate the run
  // length from the record sizes, then verify against the real size.
  const size_t els_bytes = tree->els_in_page() ? tree->codec_.CodeBytes() : 0;
  const size_t per_child = 5 + els_bytes + 15;  // leaf + amortized internal
  const size_t max_children = std::max<size_t>(
      2, (options.page_size - 4) / per_child);

  uint8_t level_no = 0;
  while (level.size() > 1) {
    ++level_no;
    std::vector<Built> next;
    // Even grouping with every node receiving at least 2 children (a tree,
    // not a linked list; also keeps every level's node type uniform).
    size_t nodes = (level.size() + max_children - 1) / max_children;
    if (level.size() / nodes < 2) nodes = std::max<size_t>(1, level.size() / 2);
    const size_t base = level.size() / nodes;
    const size_t rem = level.size() % nodes;
    size_t start = 0;
    for (size_t g = 0; g < nodes; ++g) {
      const size_t take = base + (g < rem ? 1 : 0);
      const size_t end = start + take;
      std::vector<HybridTree::ChildItem> items;
      Box node_live = Box::Empty(options.dim);
      for (size_t i = start; i < end; ++i) {
        node_live.ExtendToInclude(level[i].live);
        items.push_back(HybridTree::ChildItem{level[i].page, level[i].live,
                                              level[i].live});
      }
      start = end;
      IndexNode node;
      node.level = level_no;
      HT_CHECK(items.size() >= 2);
      node.root = tree->BuildKdTree(std::move(items),
                                    Box::UnitCube(options.dim));
      HT_CHECK(node.SerializedSize(tree->els_in_page()) <= options.page_size);
      HT_ASSIGN_OR_RETURN(PageHandle h, tree->pool_->New());
      const PageId page = h.id();
      h.Release();
      HT_RETURN_NOT_OK(tree->WriteIndexNode(page, node));
      next.push_back(Built{page, node_live});
    }
    level = std::move(next);
  }

  // Repoint the root (freeing the placeholder empty data page).
  const PageId placeholder = tree->root_;
  tree->root_ = level[0].page;
  tree->height_ = level_no;
  tree->count_ = data.size();
  tree->DropPageState(placeholder);
  HT_RETURN_NOT_OK(tree->pool_->Free(placeholder));
  HT_RETURN_NOT_OK(tree->WriteMeta());
  return tree;
}

}  // namespace ht
