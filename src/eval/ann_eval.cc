#include "src/eval/ann_eval.h"

#include <algorithm>
#include <unordered_set>

namespace dess {

Result<AnnRecallReport> EvaluateAnnRecall(const SearchEngine& exact,
                                          const SearchEngine& approx,
                                          int ordinal,
                                          const std::vector<size_t>& cutoffs,
                                          size_t stride) {
  if (cutoffs.empty()) {
    return Status::InvalidArgument("ann recall: no cutoffs requested");
  }
  if (ordinal < 0 || ordinal >= exact.NumSpaces() ||
      ordinal >= approx.NumSpaces()) {
    return Status::InvalidArgument("ann recall: feature space out of range");
  }
  if (exact.db().NumShapes() != approx.db().NumShapes()) {
    return Status::InvalidArgument(
        "ann recall: engines serve different corpus sizes");
  }
  const size_t kmax = *std::max_element(cutoffs.begin(), cutoffs.end());
  if (kmax == 0) {
    return Status::InvalidArgument("ann recall: zero cutoff");
  }
  AnnRecallReport report;
  report.cutoffs = cutoffs;
  report.recall.assign(cutoffs.size(), 0.0);
  const size_t step = std::max<size_t>(1, stride);
  const QueryRequest request =
      QueryRequest::TopK(exact.registry().id(ordinal), kmax);
  size_t row = 0;
  for (const ShapeRecord& rec : exact.db().records()) {
    if (row++ % step != 0) continue;
    DESS_ASSIGN_OR_RETURN(const QueryResponse exact_response,
                          exact.Query(rec.signature, request));
    DESS_ASSIGN_OR_RETURN(const QueryResponse approx_response,
                          approx.Query(rec.signature, request));
    const std::vector<SearchResult>& truth = exact_response.results;
    const std::vector<SearchResult>& got = approx_response.results;
    for (size_t c = 0; c < cutoffs.size(); ++c) {
      const size_t k = std::min(cutoffs[c], truth.size());
      if (k == 0) continue;
      std::unordered_set<int> truth_ids;
      truth_ids.reserve(k);
      for (size_t i = 0; i < k; ++i) truth_ids.insert(truth[i].id);
      size_t hits = 0;
      for (size_t i = 0; i < std::min(k, got.size()); ++i) {
        hits += truth_ids.count(got[i].id);
      }
      report.recall[c] += static_cast<double>(hits) / static_cast<double>(k);
    }
    ++report.num_queries;
  }
  if (report.num_queries == 0) {
    return Status::InvalidArgument("ann recall: empty corpus");
  }
  for (double& r : report.recall) r /= static_cast<double>(report.num_queries);
  return report;
}

}  // namespace dess
