// Content-based image retrieval with relevance feedback — the MARS use
// case that motivates the hybrid tree's arbitrary-distance-function
// support (paper §1, §3.5 and [13, 21]).
//
// A distance-based index (SS-tree, M-tree) bakes one metric into its
// structure; reweighting the metric between feedback iterations would
// invalidate the index. The hybrid tree is feature-based: the same index
// answers every iteration, each with a different weighted metric.
//
//   $ ./image_search

#include <cmath>
#include <cstdio>

#include "core/hybrid_tree.h"
#include "data/generators.h"
#include "data/workload.h"

using namespace ht;

namespace {

/// Standard deviation re-weighting (a simplified MindReader/MARS update):
/// dimensions on which the relevant examples agree get high weight.
std::vector<double> FeedbackWeights(const Dataset& data,
                                    const std::vector<uint64_t>& relevant) {
  const uint32_t dim = data.dim();
  std::vector<double> mean(dim, 0.0), var(dim, 0.0), weights(dim, 1.0);
  if (relevant.size() < 2) return weights;
  for (uint64_t id : relevant) {
    auto row = data.Row(id);
    for (uint32_t d = 0; d < dim; ++d) mean[d] += row[d];
  }
  for (auto& m : mean) m /= static_cast<double>(relevant.size());
  for (uint64_t id : relevant) {
    auto row = data.Row(id);
    for (uint32_t d = 0; d < dim; ++d) {
      const double diff = row[d] - mean[d];
      var[d] += diff * diff;
    }
  }
  for (uint32_t d = 0; d < dim; ++d) {
    weights[d] = 1.0 / (1e-4 + var[d] / static_cast<double>(relevant.size()));
  }
  // Normalize so weights average to 1 (keeps distances comparable).
  double sum = 0.0;
  for (double w : weights) sum += w;
  for (auto& w : weights) w *= dim / sum;
  return weights;
}

}  // namespace

int main() {
  // "Image collection": 30,000 synthetic 32-bin color histograms.
  const uint32_t kBins = 32;
  Rng rng(7);
  Dataset histograms = GenColhist(30000, kBins, rng);
  histograms.NormalizeUnitCube();

  MemPagedFile file(kDefaultPageSize);
  HybridTreeOptions options;
  options.dim = kBins;
  options.els_bits = 8;
  auto tree = HybridTree::Create(options, &file).ValueOrDie();
  for (size_t i = 0; i < histograms.size(); ++i) {
    HT_CHECK_OK(tree->Insert(histograms.Row(i), i));
  }
  std::printf("indexed %zu image histograms (%u bins)\n", histograms.size(),
              kBins);

  // The user queries with image #123 ("find me images like this one").
  const uint64_t query_image = 123;
  auto query = histograms.Row(query_image);

  // Iteration 0: plain L1 (histogram intersection analogue, as in [18]).
  L1Metric l1;
  auto page0 = tree->SearchKnn(query, 10, l1).ValueOrDie();
  std::printf("\niteration 0 (L1): top-10 ids:");
  for (const auto& [dist, id] : page0) {
    std::printf(" %llu", static_cast<unsigned long long>(id));
  }
  std::printf("\n");

  // The user marks a few of the results as relevant; the system reweights
  // the metric and re-queries THE SAME INDEX — no rebuild.
  std::vector<uint64_t> relevant;
  for (size_t i = 0; i < page0.size(); i += 2) relevant.push_back(page0[i].second);
  for (int iteration = 1; iteration <= 3; ++iteration) {
    WeightedL2Metric weighted(FeedbackWeights(histograms, relevant));
    tree->pool().ResetStats();
    auto page = tree->SearchKnn(query, 10, weighted).ValueOrDie();
    std::printf("iteration %d (weighted L2): top-10 ids:", iteration);
    for (const auto& [dist, id] : page) {
      std::printf(" %llu", static_cast<unsigned long long>(id));
    }
    std::printf("  [%llu pages visited]\n",
                static_cast<unsigned long long>(
                    tree->pool().stats().PagesVisited()));
    // Feedback loop: keep every other result as "relevant".
    relevant.clear();
    for (size_t i = 0; i < page.size(); i += 2) relevant.push_back(page[i].second);
  }

  // Final iteration: a full quadratic-form (ellipsoid) metric — the
  // MindReader-style update where correlated bins get off-diagonal weight.
  std::vector<double> w(static_cast<size_t>(kBins) * kBins, 0.0);
  const auto diag = FeedbackWeights(histograms, relevant);
  for (uint32_t i = 0; i < kBins; ++i) w[i * kBins + i] = diag[i];
  // Neighboring bins in the 8x4 color grid are correlated (color spill).
  for (uint32_t i = 0; i + 1 < kBins; ++i) {
    const double c = 0.15 * std::sqrt(diag[i] * diag[i + 1]);
    w[i * kBins + i + 1] = w[(i + 1) * kBins + i] = c;
  }
  QuadraticFormMetric ellipsoid(kBins, w);
  auto final_page = tree->SearchKnn(query, 10, ellipsoid).ValueOrDie();
  std::printf("final iteration (quadratic form): top-10 ids:");
  for (const auto& [dist, id] : final_page) {
    std::printf(" %llu", static_cast<unsigned long long>(id));
  }
  std::printf("\n");

  std::printf(
      "\nEvery iteration used a different distance function on one index —\n"
      "the capability that distance-based structures (SS-tree, M-tree)\n"
      "cannot offer (paper §3.5).\n");
  return 0;
}
