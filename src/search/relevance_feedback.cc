#include "src/search/relevance_feedback.h"

#include <cmath>
#include <optional>

#include "src/common/metrics.h"
#include "src/index/signature_block.h"

namespace dess {
namespace {

// Mean of the raw feature vectors of the given shapes.
Result<std::vector<double>> MeanFeature(const ShapeDatabase& db, int ordinal,
                                        int dim,
                                        const std::vector<int>& ids) {
  std::vector<double> mean(dim, 0.0);
  for (int id : ids) {
    DESS_ASSIGN_OR_RETURN(std::vector<double> f, db.Feature(id, ordinal));
    for (size_t d = 0; d < mean.size(); ++d) mean[d] += f[d];
  }
  for (double& v : mean) v /= static_cast<double>(ids.size());
  return mean;
}

}  // namespace

Result<std::vector<double>> ReconstructQuery(const SearchEngine& engine,
                                             int ordinal,
                                             const std::vector<double>& raw_query,
                                             const Feedback& feedback,
                                             const FeedbackOptions& options) {
  if (ordinal < 0 || ordinal >= engine.NumSpaces()) {
    return Status::InvalidArgument("feedback: feature-space ordinal " +
                                   std::to_string(ordinal) +
                                   " out of range");
  }
  const int dim = engine.registry().dim(ordinal);
  if (static_cast<int>(raw_query.size()) != dim) {
    return Status::InvalidArgument("feedback: query dimension mismatch");
  }
  std::vector<double> q = raw_query;
  for (double& v : q) v *= options.alpha;
  if (!feedback.relevant_ids.empty()) {
    DESS_ASSIGN_OR_RETURN(
        std::vector<double> rel,
        MeanFeature(engine.db(), ordinal, dim, feedback.relevant_ids));
    for (size_t d = 0; d < q.size(); ++d) q[d] += options.beta * rel[d];
  }
  if (!feedback.irrelevant_ids.empty()) {
    DESS_ASSIGN_OR_RETURN(
        std::vector<double> irr,
        MeanFeature(engine.db(), ordinal, dim, feedback.irrelevant_ids));
    for (size_t d = 0; d < q.size(); ++d) q[d] -= options.gamma * irr[d];
  }
  // Renormalize so the reconstructed query stays at the original scale.
  const double denom =
      options.alpha + (feedback.relevant_ids.empty() ? 0.0 : options.beta) -
      (feedback.irrelevant_ids.empty() ? 0.0 : options.gamma);
  if (std::fabs(denom) > 1e-12) {
    for (double& v : q) v /= denom;
  }
  return q;
}

Result<std::vector<double>> ReconfigureWeights(
    const SearchEngine& engine, int ordinal, const Feedback& feedback,
    const FeedbackOptions& options,
    const std::vector<double>* current_weights) {
  if (ordinal < 0 || ordinal >= engine.NumSpaces()) {
    return Status::InvalidArgument("feedback: feature-space ordinal " +
                                   std::to_string(ordinal) +
                                   " out of range");
  }
  const SimilaritySpace& space = engine.SpaceAt(ordinal);
  const std::vector<double>& current =
      (current_weights != nullptr && !current_weights->empty())
          ? *current_weights
          : space.weights;
  if (current.size() != space.weights.size()) {
    return Status::InvalidArgument("current weights dimension mismatch");
  }
  if (feedback.relevant_ids.size() < 2) return current;

  // Standardized per-dimension variance of the relevant set; agreement
  // (small variance) earns a large weight (Rui et al.'s inverse-variance
  // heuristic, the mechanism referenced by the paper's [6]).
  const size_t dim = space.weights.size();
  std::vector<std::vector<double>> rel;
  for (int id : feedback.relevant_ids) {
    // Known shapes read their standardized row straight from the packed
    // signature block (same values the engine standardized at build time).
    if (const std::optional<size_t> row = engine.RowOf(id)) {
      rel.push_back(engine.BlockAt(ordinal).Row(*row));
      continue;
    }
    if (const std::optional<size_t> side_row = engine.SideRowOf(id)) {
      rel.push_back(engine.SideBlockAt(ordinal).Row(*side_row));
      continue;
    }
    DESS_ASSIGN_OR_RETURN(std::vector<double> f,
                          engine.db().Feature(id, ordinal));
    rel.push_back(space.Standardize(f));
  }
  std::vector<double> mean(dim, 0.0);
  for (const auto& v : rel) {
    for (size_t d = 0; d < dim; ++d) mean[d] += v[d];
  }
  for (double& v : mean) v /= static_cast<double>(rel.size());
  std::vector<double> var(dim, 0.0);
  for (const auto& v : rel) {
    for (size_t d = 0; d < dim; ++d) {
      var[d] += (v[d] - mean[d]) * (v[d] - mean[d]);
    }
  }
  std::vector<double> fresh(dim);
  for (size_t d = 0; d < dim; ++d) {
    var[d] /= static_cast<double>(rel.size());
    fresh[d] = 1.0 / (var[d] + 1e-3);
  }
  // Blend with the current weights, then normalize to mean 1 so distances
  // remain comparable with d_max.
  std::vector<double> out(dim);
  double sum = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    out[d] = options.weight_blend * fresh[d] +
             (1.0 - options.weight_blend) * current[d];
    sum += out[d];
  }
  if (sum > 0.0) {
    const double scale = static_cast<double>(dim) / sum;
    for (double& w : out) w *= scale;
  }
  return out;
}

Result<std::vector<SearchResult>> FeedbackRound(
    const SearchEngine& engine, int ordinal,
    std::vector<double>* raw_query, std::vector<double>* session_weights,
    const Feedback& feedback, size_t k, const FeedbackOptions& options) {
  DESS_TIMED_SCOPE("search.feedback_round");
  DESS_ASSIGN_OR_RETURN(
      *raw_query,
      ReconstructQuery(engine, ordinal, *raw_query, feedback, options));
  DESS_ASSIGN_OR_RETURN(
      *session_weights,
      ReconfigureWeights(engine, ordinal, feedback, options,
                         session_weights));
  // ReconfigureWeights never returns empty weights, so the request always
  // carries the session's weights rather than the installed ones.
  ShapeSignature probe;
  probe.MutableAt(ordinal).values = *raw_query;
  QueryRequest request = QueryRequest::TopK(engine.registry().id(ordinal), k);
  request.weights = *session_weights;
  DESS_ASSIGN_OR_RETURN(QueryResponse response, engine.Query(probe, request));
  return std::move(response.results);
}

}  // namespace dess
