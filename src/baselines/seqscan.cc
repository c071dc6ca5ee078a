#include "baselines/seqscan.h"

#include <algorithm>

namespace ht {

SeqScan::SeqScan(uint32_t dim, PagedFile* file)
    : dim_(dim), pool_(std::make_unique<BufferPool>(file, 0)) {
  capacity_per_page_ = DataNode::Capacity(dim, file->page_size());
}

Result<std::unique_ptr<SeqScan>> SeqScan::Create(uint32_t dim,
                                                 PagedFile* file) {
  if (file->page_count() != 0) {
    return Status::InvalidArgument("SeqScan::Create requires an empty file");
  }
  if (DataNode::Capacity(dim, file->page_size()) == 0) {
    return Status::InvalidArgument("page too small for one entry");
  }
  return std::unique_ptr<SeqScan>(new SeqScan(dim, file));
}

Status SeqScan::Insert(std::span<const float> point, uint64_t id) {
  if (point.size() != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  if (!InUnitCube(point)) {
    return Status::InvalidArgument("point outside [0,1]^dim");
  }
  if (pages_.empty() || last_page_count_ == capacity_per_page_) {
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->New());
    DataNode fresh;
    fresh.Serialize(h.data(), h.size(), dim_);
    h.MarkDirty();
    pages_.push_back(h.id());
    last_page_count_ = 0;
  }
  HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pages_.back()));
  HT_ASSIGN_OR_RETURN(DataNode node,
                      DataNode::Deserialize(h.data(), h.size(), dim_));
  node.entries.push_back(
      DataEntry{id, std::vector<float>(point.begin(), point.end())});
  node.Serialize(h.data(), h.size(), dim_);
  h.MarkDirty();
  last_page_count_ = node.entries.size();
  ++count_;
  return Status::OK();
}

Status SeqScan::Delete(std::span<const float> point, uint64_t id) {
  // Scan for the entry; replace it with the globally last entry to keep
  // pages densely packed.
  for (size_t p = 0; p < pages_.size(); ++p) {
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pages_[p]));
    HT_ASSIGN_OR_RETURN(DataNode node,
                        DataNode::Deserialize(h.data(), h.size(), dim_));
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const auto& e = node.entries[i];
      if (e.id != id || !std::equal(e.vec.begin(), e.vec.end(), point.begin(),
                                    point.end())) {
        continue;
      }
      // Fetch the last entry from the last page.
      HT_ASSIGN_OR_RETURN(PageHandle lh, pool_->Fetch(pages_.back()));
      HT_ASSIGN_OR_RETURN(DataNode last,
                          DataNode::Deserialize(lh.data(), lh.size(), dim_));
      if (pages_[p] == pages_.back()) {
        last.entries.erase(last.entries.begin() + static_cast<long>(i));
        last.Serialize(lh.data(), lh.size(), dim_);
        lh.MarkDirty();
      } else {
        node.entries[i] = std::move(last.entries.back());
        last.entries.pop_back();
        node.Serialize(h.data(), h.size(), dim_);
        h.MarkDirty();
        last.Serialize(lh.data(), lh.size(), dim_);
        lh.MarkDirty();
      }
      last_page_count_ = last.entries.size();
      if (last.entries.empty() && pages_.size() > 1) {
        const PageId dead = pages_.back();
        pages_.pop_back();
        // Both handles may pin the dead page (they alias when the entry
        // was found in the last page); release before freeing.
        lh.Release();
        h.Release();
        HT_RETURN_NOT_OK(pool_->Free(dead));
        last_page_count_ = capacity_per_page_;
      }
      --count_;
      return Status::OK();
    }
  }
  return Status::NotFound("no entry matches (point, id)");
}

template <typename Visit>
Status SeqScan::ScanAll(Visit visit) {
  // Zero-copy page scans: the whole point of the baseline is raw
  // sequential throughput.
  for (PageId pid : pages_) {
    HT_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(pid));
    DataPageScan scan(h.data(), h.size(), dim_);
    if (!scan.ok()) return Status::Corruption("expected data page");
    for (size_t i = 0; i < scan.count(); ++i) visit(scan, i);
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> SeqScan::SearchBox(const Box& query) {
  std::vector<uint64_t> out;
  HT_RETURN_NOT_OK(ScanAll([&](const DataPageScan& s, size_t i) {
    if (query.ContainsPoint(s.vec(i))) out.push_back(s.id(i));
  }));
  return out;
}

Result<std::vector<uint64_t>> SeqScan::SearchRange(
    std::span<const float> center, double radius,
    const DistanceMetric& metric) {
  std::vector<uint64_t> out;
  HT_RETURN_NOT_OK(ScanAll([&](const DataPageScan& s, size_t i) {
    if (metric.Distance(center, s.vec(i)) <= radius) out.push_back(s.id(i));
  }));
  return out;
}

Result<std::vector<std::pair<double, uint64_t>>> SeqScan::SearchKnn(
    std::span<const float> center, size_t k, const DistanceMetric& metric) {
  std::vector<std::pair<double, uint64_t>> all;
  HT_RETURN_NOT_OK(ScanAll([&](const DataPageScan& s, size_t i) {
    all.emplace_back(metric.Distance(center, s.vec(i)), s.id(i));
  }));
  if (k > all.size()) k = all.size();
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                    all.end());
  all.resize(k);
  return all;
}

}  // namespace ht
