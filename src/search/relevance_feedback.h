#ifndef DESS_SEARCH_RELEVANCE_FEEDBACK_H_
#define DESS_SEARCH_RELEVANCE_FEEDBACK_H_

#include <vector>

#include "src/search/search_engine.h"

namespace dess {

/// User feedback for one search round: database ids marked relevant and
/// irrelevant on the results interface (Section 2.2).
struct Feedback {
  std::vector<int> relevant_ids;
  std::vector<int> irrelevant_ids;
};

/// Rocchio-style parameters for query reconstruction.
struct FeedbackOptions {
  double alpha = 1.0;   // weight of the original query
  double beta = 0.75;   // pull toward relevant shapes
  double gamma = 0.25;  // push away from irrelevant shapes
  /// Weight-reconfiguration smoothing: new weights are blended with the
  /// previous ones by this fraction.
  double weight_blend = 0.7;
};

/// Query reconstruction (first feedback mechanism of Section 2.2): moves
/// the raw query vector toward the centroid of the relevant shapes and away
/// from the centroid of the irrelevant ones. Every entry point addresses a
/// registered feature space by its registry ordinal.
Result<std::vector<double>> ReconstructQuery(
    const SearchEngine& engine, int ordinal,
    const std::vector<double>& raw_query, const Feedback& feedback,
    const FeedbackOptions& options = {});

/// Weight reconfiguration (second feedback mechanism): dimensions on which
/// the relevant shapes agree (low variance) get boosted weights, blended
/// with the current weights and normalized to mean 1. `current_weights`
/// carries the session's weights from the previous round (nullptr or empty
/// means the space's installed weights). Needs at least two relevant shapes
/// to estimate variances; returns the current weights otherwise.
Result<std::vector<double>> ReconfigureWeights(
    const SearchEngine& engine, int ordinal, const Feedback& feedback,
    const FeedbackOptions& options = {},
    const std::vector<double>* current_weights = nullptr);

/// One full feedback round against an immutable engine (e.g. one published
/// in a snapshot): reconstructs the query in place, reconfigures
/// `session_weights` in place (pass empty for the first round), and re-runs
/// the top-k search with the reconfigured weights. Feedback state lives in
/// the caller's session, not in the shared engine, so concurrent sessions
/// never see each other's weights.
Result<std::vector<SearchResult>> FeedbackRound(
    const SearchEngine& engine, int ordinal,
    std::vector<double>* raw_query, std::vector<double>* session_weights,
    const Feedback& feedback, size_t k, const FeedbackOptions& options = {});

}  // namespace dess

#endif  // DESS_SEARCH_RELEVANCE_FEEDBACK_H_
