#include <algorithm>
#include <chrono>

#include "src/common/metrics.h"
#include "src/search/search_engine.h"

namespace dess {

MultiStepPlan MultiStepPlan::Standard(int first_retrieve, int final_keep) {
  MultiStepPlan plan;
  plan.stages.push_back({FeatureKind::kMomentInvariants, "", first_retrieve});
  plan.stages.push_back({FeatureKind::kGeometricParams, "", final_keep});
  return plan;
}

Status SearchEngine::RunPlan(const ShapeSignature* query, int query_id,
                             const QueryRequest& request,
                             QueryResponse* response) const {
  if (!request.weights.empty()) {
    return Status::InvalidArgument(
        "per-query weights are not supported for multi-step queries; "
        "the plan's stages span several feature spaces");
  }
  const MultiStepPlan& plan = request.plan;
  // Resolve every stage before touching the database or an index, so an
  // unknown space id or an empty plan fails InvalidArgument regardless of
  // the query shape.
  DESS_ASSIGN_OR_RETURN(const std::vector<int> ordinals,
                        RequestSpaces(request));
  std::vector<std::vector<double>> query_features;
  int exclude_id = -1;
  if (query != nullptr) {
    query_features.resize(std::min(NumSpaces(), query->NumSpaces()));
    for (size_t i = 0; i < query_features.size(); ++i) {
      query_features[i] = query->At(static_cast<int>(i)).values;
    }
  } else {
    query_features.resize(NumSpaces());
    for (int ordinal = 0; ordinal < NumSpaces(); ++ordinal) {
      DESS_ASSIGN_OR_RETURN(query_features[ordinal],
                            db_->Feature(query_id, ordinal));
    }
    exclude_id = query_id;
  }
  DESS_TIMED_SCOPE("search.multistep");
  MetricsRegistry* registry = MetricsRegistry::Global();
  std::vector<SearchResult> current;
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    if (request.has_deadline() &&
        std::chrono::steady_clock::now() > request.deadline) {
      return Status::DeadlineExceeded(
          "multi-step query deadline passed before stage " +
          std::to_string(s));
    }
    const MultiStepStage& stage = plan.stages[s];
    const int ordinal = ordinals[s];
    if (ordinal >= static_cast<int>(query_features.size())) {
      return Status::InvalidArgument(
          "multi-step: query carries no feature for stage " +
          std::to_string(s));
    }
    const auto& feature = query_features[ordinal];
    const auto stage_start = std::chrono::steady_clock::now();
    if (s == 0) {
      // First stage: index search. Over-fetch by one when excluding the
      // query shape itself. When the stage's index is approximate and a
      // later stage will re-rank anyway, widen the kept set by the
      // engine's oversample factor: a true final-top-k member the graph
      // ranks slightly low still reaches the exact stages, which restore
      // the order. The final stage's keep still bounds the answer size.
      size_t k =
          stage.keep > 0 ? static_cast<size_t>(stage.keep) : db_->NumShapes();
      if (!IsExactAt(ordinal) && plan.stages.size() > 1) {
        const size_t oversample = static_cast<size_t>(
            std::max(1, options_.approx_oversample));
        const size_t cap = db_->NumShapes();
        k = k > cap / oversample ? cap : k * oversample;
      }
      DESS_ASSIGN_OR_RETURN(
          current,
          QueryTopKImpl(feature, ordinal, k + (exclude_id >= 0 ? 1 : 0),
                        /*weights=*/nullptr, &response->stats));
      if (exclude_id >= 0) {
        std::erase_if(current, [&](const SearchResult& r) {
          return r.id == exclude_id;
        });
      }
      if (current.size() > k) {
        current.resize(k);
      }
      if (registry->enabled()) {
        registry->AddCounter("multistep.queries");
        registry->AddCounter("multistep.step1_retrieved", current.size());
      }
    } else {
      // Later stages: filter the previous results with another feature
      // vector (re-rank and truncate).
      std::vector<int> ids;
      ids.reserve(current.size());
      for (const SearchResult& r : current) ids.push_back(r.id);
      if (registry->enabled()) {
        registry->AddCounter("multistep.reranked", ids.size());
      }
      DESS_ASSIGN_OR_RETURN(
          current,
          Rerank(ids, feature, ordinal,
                 stage.keep > 0 ? static_cast<size_t>(stage.keep) : 0));
      response->stats.points_compared += ids.size();
      if (stage.keep > 0 && current.size() > static_cast<size_t>(stage.keep)) {
        current.resize(stage.keep);
      }
    }
    response->stage_timings.push_back(MakeStageTiming(
        s == 0 ? "search.query_topk" : "search.rerank", request.deadline,
        stage_start, std::chrono::steady_clock::now()));
  }
  if (registry->enabled()) {
    registry->AddCounter("multistep.final_results", current.size());
  }
  response->results = std::move(current);
  return Status::OK();
}

}  // namespace dess
