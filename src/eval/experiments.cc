#include "src/eval/experiments.h"

#include <algorithm>
#include <map>

namespace dess {

std::vector<int> OneQueryPerGroup(const ShapeDatabase& db) {
  std::map<int, int> first_member;  // group -> smallest id
  for (const ShapeRecord& rec : db.records()) {
    if (rec.group == kUngrouped) continue;
    auto it = first_member.find(rec.group);
    if (it == first_member.end() || rec.id < it->second) {
      first_member[rec.group] = rec.id;
    }
  }
  std::vector<int> out;
  out.reserve(first_member.size());
  for (const auto& [group, id] : first_member) {
    (void)group;
    out.push_back(id);
  }
  return out;
}

std::vector<int> PickRepresentativeQueries(const ShapeDatabase& db, int n) {
  // Order groups by size descending (stable by group id), take the first
  // member of each of the n largest groups.
  std::map<int, std::vector<int>> groups;
  for (const ShapeRecord& rec : db.records()) {
    if (rec.group != kUngrouped) groups[rec.group].push_back(rec.id);
  }
  std::vector<std::pair<int, std::vector<int>>> ordered(groups.begin(),
                                                        groups.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second.size() != b.second.size()) {
                return a.second.size() > b.second.size();
              }
              return a.first < b.first;
            });
  std::vector<int> out;
  for (const auto& [group, members] : ordered) {
    (void)group;
    if (static_cast<int>(out.size()) >= n) break;
    out.push_back(*std::min_element(members.begin(), members.end()));
  }
  return out;
}

namespace {

std::vector<int> IdsOf(const std::vector<SearchResult>& results) {
  std::vector<int> ids;
  ids.reserve(results.size());
  for (const SearchResult& r : results) ids.push_back(r.id);
  return ids;
}

// Applies the protocol's |R| to a plan: stages with keep <= 0 retrieve
// `r` shapes (the final presentation size).
MultiStepPlan PlanWithFinalKeep(const MultiStepPlan& plan, int r) {
  MultiStepPlan out = plan;
  if (!out.stages.empty() && out.stages.back().keep <= 0) {
    out.stages.back().keep = r;
  } else if (!out.stages.empty()) {
    out.stages.back().keep = r;
  }
  return out;
}

}  // namespace

Result<std::vector<EffectivenessRow>> RunAverageEffectiveness(
    const SearchEngine& engine, const MultiStepPlan& plan) {
  const ShapeDatabase& db = engine.db();
  const std::vector<int> queries = OneQueryPerGroup(db);
  if (queries.empty()) {
    return Status::InvalidArgument("no grouped shapes in database");
  }

  std::vector<EffectivenessRow> rows;
  // One-shot rows, one per feature space the engine serves (the canonical
  // four plus any registered ones).
  for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
    const std::string& space = engine.registry().id(ordinal);
    EffectivenessRow row;
    row.method = space + " (one-shot)";
    for (int q : queries) {
      const std::set<int> relevant = RelevantSetFor(db, q);
      const int group_r = static_cast<int>(relevant.size());
      DESS_ASSIGN_OR_RETURN(
          QueryResponse by_group,
          engine.QueryById(q, QueryRequest::TopK(space, group_r)));
      row.avg_recall_group_size +=
          ComputePrecisionRecall(IdsOf(by_group.results), relevant).recall;
      DESS_ASSIGN_OR_RETURN(QueryResponse by_ten,
                            engine.QueryById(q, QueryRequest::TopK(space, 10)));
      const PrPoint p10 =
          ComputePrecisionRecall(IdsOf(by_ten.results), relevant);
      row.avg_recall_10 += p10.recall;
      row.avg_precision_10 += p10.precision;
    }
    const double n = static_cast<double>(queries.size());
    row.avg_recall_group_size /= n;
    row.avg_recall_10 /= n;
    row.avg_precision_10 /= n;
    rows.push_back(row);
  }

  // Multi-step row.
  EffectivenessRow ms;
  ms.method = "multi-step";
  for (int q : queries) {
    const std::set<int> relevant = RelevantSetFor(db, q);
    const int group_r = static_cast<int>(relevant.size());
    DESS_ASSIGN_OR_RETURN(
        QueryResponse by_group,
        engine.QueryById(q, QueryRequest::MultiStep(
                                PlanWithFinalKeep(plan, group_r))));
    ms.avg_recall_group_size +=
        ComputePrecisionRecall(IdsOf(by_group.results), relevant).recall;
    DESS_ASSIGN_OR_RETURN(
        QueryResponse by_ten,
        engine.QueryById(q,
                         QueryRequest::MultiStep(PlanWithFinalKeep(plan, 10))));
    const PrPoint p10 =
        ComputePrecisionRecall(IdsOf(by_ten.results), relevant);
    ms.avg_recall_10 += p10.recall;
    ms.avg_precision_10 += p10.precision;
  }
  const double n = static_cast<double>(queries.size());
  ms.avg_recall_group_size /= n;
  ms.avg_recall_10 /= n;
  ms.avg_precision_10 /= n;
  rows.push_back(ms);
  return rows;
}

Result<std::vector<PrCurveBundle>> RunPrCurveExperimentGrid(
    const SearchEngine& engine, const std::vector<int>& query_ids,
    const std::vector<double>& thresholds) {
  std::vector<PrCurveBundle> out;
  for (int q : query_ids) {
    PrCurveBundle bundle;
    bundle.query_id = q;
    DESS_ASSIGN_OR_RETURN(const ShapeRecord* rec, engine.db().Get(q));
    bundle.query_name = rec->name;
    bundle.curves.resize(engine.NumSpaces());
    bundle.spaces.resize(engine.NumSpaces());
    for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
      bundle.spaces[ordinal] = engine.registry().id(ordinal);
      DESS_ASSIGN_OR_RETURN(
          bundle.curves[ordinal],
          PrCurveForThresholds(engine, q, ordinal, thresholds));
    }
    out.push_back(std::move(bundle));
  }
  return out;
}

Result<std::vector<PrCurveBundle>> RunPrCurveExperiment(
    const SearchEngine& engine, const std::vector<int>& query_ids,
    int num_thresholds) {
  std::vector<double> thresholds;
  for (int t = 0; t < num_thresholds; ++t) {
    thresholds.push_back(static_cast<double>(t) /
                         static_cast<double>(std::max(1, num_thresholds - 1)));
  }
  return RunPrCurveExperimentGrid(engine, query_ids, thresholds);
}

}  // namespace dess
