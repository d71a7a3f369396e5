#ifndef DESS_EVAL_EXPERIMENTS_H_
#define DESS_EVAL_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "src/eval/precision_recall.h"
#include "src/search/search_engine.h"

namespace dess {

/// One method row of the average-effectiveness comparison of Figures 15/16:
/// four one-shot feature vectors plus the multi-step strategy.
struct EffectivenessRow {
  std::string method;
  /// Protocol A (Figure 15 series 1): retrieve as many shapes as the
  /// query's group (|R| = |A|, so precision == recall).
  double avg_recall_group_size = 0.0;
  /// Protocol B (Figure 15 series 2 / Figure 16): retrieve exactly 10.
  double avg_recall_10 = 0.0;
  double avg_precision_10 = 0.0;
};

/// Picks one query per group (the group's first member), the paper's
/// 26-query protocol for Section 4.2.
std::vector<int> OneQueryPerGroup(const ShapeDatabase& db);

/// Picks `n` representative query shapes from `n` distinct groups, largest
/// groups first (the Figure 6 five-shape selection).
std::vector<int> PickRepresentativeQueries(const ShapeDatabase& db, int n);

/// Runs the 26-query average-effectiveness experiment (Figures 15 and 16):
/// each one-shot feature vector, then the multi-step strategy given by
/// `plan` (stage `keep` values <= 0 inherit the protocol's |R|).
Result<std::vector<EffectivenessRow>> RunAverageEffectiveness(
    const SearchEngine& engine,
    const MultiStepPlan& plan = MultiStepPlan::Standard());

/// A full PR-curve bundle for one query shape (one Figure 8-12 panel):
/// one curve per feature space the engine serves — the canonical four
/// plus any registered ones.
struct PrCurveBundle {
  int query_id = -1;
  std::string query_name;
  std::vector<std::string> spaces;           // feature-space id per curve
  std::vector<std::vector<PrPoint>> curves;  // indexed by registry ordinal
};

/// Generates the Figure 8-12 PR-curve panels for the given query shapes.
Result<std::vector<PrCurveBundle>> RunPrCurveExperiment(
    const SearchEngine& engine, const std::vector<int>& query_ids,
    int num_thresholds = 21);

/// Same over an explicit threshold grid (e.g. DefaultThresholdGrid()).
Result<std::vector<PrCurveBundle>> RunPrCurveExperimentGrid(
    const SearchEngine& engine, const std::vector<int>& query_ids,
    const std::vector<double>& thresholds);

}  // namespace dess

#endif  // DESS_EVAL_EXPERIMENTS_H_
