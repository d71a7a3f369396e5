#include "src/eval/precision_recall.h"

namespace dess {

PrPoint ComputePrecisionRecall(const std::vector<int>& retrieved_ids,
                               const std::set<int>& relevant) {
  PrPoint out;
  out.retrieved = static_cast<int>(retrieved_ids.size());
  int hits = 0;
  for (int id : retrieved_ids) {
    if (relevant.count(id)) ++hits;
  }
  out.precision = retrieved_ids.empty()
                      ? 0.0
                      : static_cast<double>(hits) / retrieved_ids.size();
  out.recall =
      relevant.empty() ? 0.0 : static_cast<double>(hits) / relevant.size();
  return out;
}

std::set<int> RelevantSetFor(const ShapeDatabase& db, int query_id) {
  std::set<int> relevant;
  auto rec = db.Get(query_id);
  if (!rec.ok() || (*rec)->group == kUngrouped) return relevant;
  for (int id : db.GroupMembers((*rec)->group)) {
    if (id != query_id) relevant.insert(id);
  }
  return relevant;
}

Result<std::vector<PrPoint>> PrCurveForThresholds(
    const SearchEngine& engine, int query_id, FeatureKind kind,
    const std::vector<double>& thresholds) {
  return PrCurveForThresholds(engine, query_id, static_cast<int>(kind),
                              thresholds);
}

Result<std::vector<PrPoint>> PrCurveForThresholds(
    const SearchEngine& engine, int query_id, int ordinal,
    const std::vector<double>& thresholds) {
  if (thresholds.size() < 2) {
    return Status::InvalidArgument("PR curve needs at least 2 thresholds");
  }
  const std::set<int> relevant = RelevantSetFor(engine.db(), query_id);
  std::vector<PrPoint> curve;
  curve.reserve(thresholds.size());
  for (double threshold : thresholds) {
    DESS_ASSIGN_OR_RETURN(
        QueryResponse response,
        engine.QueryById(query_id, QueryRequest::Threshold(
                                       engine.registry().id(ordinal),
                                       threshold)));
    std::vector<int> ids;
    ids.reserve(response.results.size());
    for (const SearchResult& r : response.results) ids.push_back(r.id);
    PrPoint p = ComputePrecisionRecall(ids, relevant);
    p.threshold = threshold;
    curve.push_back(p);
  }
  return curve;
}

Result<std::vector<PrPoint>> PrCurveForQuery(const SearchEngine& engine,
                                             int query_id, FeatureKind kind,
                                             int num_thresholds) {
  return PrCurveForQuery(engine, query_id, static_cast<int>(kind),
                         num_thresholds);
}

Result<std::vector<PrPoint>> PrCurveForQuery(const SearchEngine& engine,
                                             int query_id, int ordinal,
                                             int num_thresholds) {
  if (num_thresholds < 2) {
    return Status::InvalidArgument("PR curve needs at least 2 thresholds");
  }
  std::vector<double> thresholds;
  thresholds.reserve(num_thresholds);
  for (int t = 0; t < num_thresholds; ++t) {
    thresholds.push_back(static_cast<double>(t) /
                         static_cast<double>(num_thresholds - 1));
  }
  return PrCurveForThresholds(engine, query_id, ordinal, thresholds);
}

std::vector<double> DefaultThresholdGrid() {
  std::vector<double> grid;
  for (double t = 0.0; t < 0.7 - 1e-9; t += 0.1) grid.push_back(t);
  for (double t = 0.7; t <= 1.0 + 1e-9; t += 0.02) {
    grid.push_back(t > 1.0 ? 1.0 : t);
  }
  return grid;
}

}  // namespace dess
