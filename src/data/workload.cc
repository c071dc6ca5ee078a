#include "data/workload.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace ht {

std::vector<std::vector<float>> MakeQueryCenters(const Dataset& data, size_t n,
                                                 Rng& rng, double jitter) {
  HT_CHECK(data.size() > 0);
  std::vector<std::vector<float>> centers;
  centers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto row = data.Row(rng.NextBelow(data.size()));
    std::vector<float> c(row.begin(), row.end());
    for (auto& v : c) {
      double x = v + jitter * rng.NextGaussian();
      v = static_cast<float>(std::clamp(x, 0.0, 1.0));
    }
    centers.push_back(std::move(c));
  }
  return centers;
}

Box MakeBoxQuery(std::span<const float> center, double side) {
  const uint32_t dim = static_cast<uint32_t>(center.size());
  std::vector<float> lo(dim), hi(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    lo[d] = static_cast<float>(std::max(0.0, center[d] - side / 2));
    hi[d] = static_cast<float>(std::min(1.0, center[d] + side / 2));
  }
  return Box::FromBounds(std::move(lo), std::move(hi));
}

namespace {

/// Row indices of a speed-bounding subsample (or everything if small).
std::vector<size_t> Subsample(const Dataset& data, size_t cap, Rng& rng) {
  std::vector<size_t> idx;
  if (data.size() <= cap) {
    idx.resize(data.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  } else {
    idx.reserve(cap);
    for (size_t i = 0; i < cap; ++i) idx.push_back(rng.NextBelow(data.size()));
  }
  return idx;
}

double MeanBoxSelectivity(const Dataset& data,
                          const std::vector<size_t>& sample,
                          const std::vector<std::vector<float>>& centers,
                          double side) {
  double total = 0.0;
  for (const auto& c : centers) {
    const Box q = MakeBoxQuery(c, side);
    size_t hits = 0;
    for (size_t i : sample) {
      if (q.ContainsPoint(data.Row(i))) ++hits;
    }
    total += static_cast<double>(hits) / static_cast<double>(sample.size());
  }
  return total / static_cast<double>(centers.size());
}

double MeanRangeSelectivity(const Dataset& data,
                            const std::vector<size_t>& sample,
                            const std::vector<std::vector<float>>& centers,
                            const DistanceMetric& metric, double radius) {
  double total = 0.0;
  for (const auto& c : centers) {
    size_t hits = 0;
    for (size_t i : sample) {
      if (metric.Distance(c, data.Row(i)) <= radius) ++hits;
    }
    total += static_cast<double>(hits) / static_cast<double>(sample.size());
  }
  return total / static_cast<double>(centers.size());
}

}  // namespace

double CalibrateBoxSide(const Dataset& data, double target, size_t probes,
                        Rng& rng) {
  HT_CHECK(target > 0.0 && target < 1.0);
  auto sample = Subsample(data, 20000, rng);
  auto centers = MakeQueryCenters(data, probes, rng);
  double lo = 0.0, hi = 2.0;  // side 2 covers the whole unit cube
  for (int iter = 0; iter < 40; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (MeanBoxSelectivity(data, sample, centers, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double CalibrateRangeRadius(const Dataset& data, const DistanceMetric& metric,
                            double target, size_t probes, Rng& rng) {
  HT_CHECK(target > 0.0 && target < 1.0);
  auto sample = Subsample(data, 20000, rng);
  auto centers = MakeQueryCenters(data, probes, rng);
  // Upper bound: L1 diameter of the unit cube is dim; every metric we ship
  // is bounded by it on [0,1]^dim.
  double lo = 0.0, hi = static_cast<double>(data.dim());
  for (int iter = 0; iter < 40; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (MeanRangeSelectivity(data, sample, centers, metric, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<uint64_t> BruteForceBox(const Dataset& data, const Box& query) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < data.size(); ++i) {
    if (query.ContainsPoint(data.Row(i))) out.push_back(i);
  }
  return out;
}

std::vector<uint64_t> BruteForceRange(const Dataset& data,
                                      std::span<const float> center,
                                      double radius,
                                      const DistanceMetric& metric) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < data.size(); ++i) {
    if (metric.Distance(center, data.Row(i)) <= radius) out.push_back(i);
  }
  return out;
}

std::vector<std::pair<double, uint64_t>> BruteForceKnn(
    const Dataset& data, std::span<const float> center, size_t k,
    const DistanceMetric& metric) {
  // A bounded max-heap of the k smallest (distance, id) pairs: the result
  // holds k entries, never the whole dataset.
  k = std::min(k, data.size());
  std::vector<std::pair<double, uint64_t>> best;
  if (k == 0) return best;
  best.reserve(k);
  for (size_t i = 0; i < data.size(); ++i) {
    const double d = metric.Distance(center, data.Row(i));
    const std::pair<double, uint64_t> e(d, i);
    if (best.size() < k) {
      best.push_back(e);
      std::push_heap(best.begin(), best.end());
    } else if (e < best.front()) {
      std::pop_heap(best.begin(), best.end());
      best.back() = e;
      std::push_heap(best.begin(), best.end());
    }
  }
  std::sort_heap(best.begin(), best.end());
  return best;
}

}  // namespace ht
