#ifndef DESS_INDEX_HNSW_H_
#define DESS_INDEX_HNSW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/index/multidim_index.h"
#include "src/index/signature_block.h"

namespace dess {

class ThreadPool;

/// HNSW construction/search parameters (Malkov & Yashunin). The defaults
/// favor recall over speed at engineering-corpus dimensionalities; the
/// acceptance bar is recall@10 >= 0.95 against the exact scan.
struct HnswParams {
  /// Out-degree target per node per layer (layer 0 allows 2*M).
  int M = 16;
  /// Beam width during construction.
  int ef_construction = 200;
  /// Beam width during search; KNearest uses max(ef_search, k).
  int ef_search = 64;
  /// Nodes linked per sequential step during Build. Candidate searches for
  /// a whole batch run in parallel against the graph frozen at the batch
  /// boundary, then links are added in node order — so the built graph is
  /// a pure function of (rows, params), independent of thread count.
  int build_batch = 256;
  /// Seed for the per-node level draw (hashed with the row index, so
  /// levels are stable under appends).
  uint64_t seed = 0;
  /// Upper bound on node levels (safety bound for the geometric draw).
  int max_level_cap = 30;
};

/// Approximate nearest-neighbor graph over weighted Euclidean space:
/// hierarchical navigable small world. Distances use the same
/// RowWeightedL2 kernel as the exact backends, but KNearest explores only
/// the neighborhood the graph reaches, so results are approximate — the
/// engine re-scores candidates exactly and never reports graph distances
/// as final.
///
/// Determinism: the graph is a pure function of (rows, params). Level
/// draws come from a hash of (seed, row); all candidate orderings break
/// ties by (distance, row); the parallel build partitions work by fixed
/// batch boundaries with a sequential link phase, so any thread count
/// produces the identical graph.
class HnswIndex final : public MultiDimIndex {
 public:
  /// Builds the graph over a packed block of standardized rows (copied
  /// into the index). `weights` are the space weights used for graph
  /// construction (null or empty = all ones); `pool` parallelizes the
  /// per-batch candidate searches (null = serial, same graph).
  static Result<std::unique_ptr<HnswIndex>> Build(
      const HnswParams& params, const SignatureBlock& rows,
      const std::vector<double>* weights, ThreadPool* pool);

  /// Restores a graph serialized by SerializeGraph over the same rows.
  /// InvalidArgument when the bytes do not describe a graph over exactly
  /// `rows` with these params (callers fall back to Build).
  static Result<std::unique_ptr<HnswIndex>> Deserialize(
      const HnswParams& params, const SignatureBlock& rows,
      const std::vector<double>* weights, std::string_view bytes);

  /// The graph topology (entry point, levels, adjacency) as a compact
  /// byte string; vectors are not included — they are rebuilt from the
  /// standardized feature rows on open.
  std::string SerializeGraph() const;

  int dim() const override { return dim_; }
  size_t size() const override { return block_.size(); }
  const HnswParams& params() const { return params_; }

  /// Appends one point and links it into the graph (the sequential path;
  /// a batch of one). The extended graph is again deterministic.
  Status Insert(int id, const std::vector<double>& point) override;

  /// Graph nodes cannot be unlinked in place; rebuilding the index is the
  /// update path.
  Status Remove(int id, const std::vector<double>& point) override;

  std::vector<Neighbor> KNearest(const std::vector<double>& query, size_t k,
                                 const std::vector<double>& weights = {},
                                 QueryStats* stats = nullptr) const override;

  /// Approximate: beam search with ef_search then a radius filter. The
  /// engine never uses this (the backend reports supports_range=false and
  /// the threshold path falls back to an exact scan); exposed for tests.
  std::vector<Neighbor> RangeQuery(const std::vector<double>& query,
                                   double radius,
                                   const std::vector<double>& weights = {},
                                   QueryStats* stats = nullptr) const override;

  /// Structural accessors for tests.
  int entry_node() const { return entry_; }
  int max_level() const { return max_level_; }

 private:
  HnswIndex(const HnswParams& params, int dim,
            const std::vector<double>* weights);

  struct Cand {
    double d = 0.0;
    int row = -1;
    bool operator<(const Cand& o) const {
      if (d != o.d) return d < o.d;
      return row < o.row;
    }
  };

  /// Per-search scratch (visited stamps + reusable heaps), reused across
  /// nodes of one build shard so the visited array is cleared in O(1).
  struct Scratch;

  int LevelFor(size_t row) const;
  double DistToRow(const double* q, size_t row, const double* w) const;

  /// Beam search at one layer from `entries`, returning up to `ef`
  /// candidates ascending by (distance, row). Read-only on the graph.
  std::vector<Cand> SearchLayer(const double* q, const double* w,
                                const std::vector<int>& entries, size_t ef,
                                int layer, Scratch* scratch,
                                QueryStats* stats) const;

  /// Greedy descent from the entry point through layers (top, target]:
  /// the standard upper-layer routing step.
  int GreedyDescend(const double* q, const double* w, int target_layer,
                    Scratch* scratch, QueryStats* stats) const;

  /// Candidate lists for one node against the frozen graph (the parallel
  /// phase of a batch).
  std::vector<std::vector<Cand>> CollectCandidates(size_t row,
                                                   Scratch* scratch) const;

  /// Links one node given its frozen-graph candidates, augmented with the
  /// batch-local predecessors [batch_begin, row) (the sequential phase).
  void LinkNode(size_t row, size_t batch_begin,
                std::vector<std::vector<Cand>> candidates);

  /// Malkov & Yashunin's neighbour-selection heuristic (arXiv:1603.09320,
  /// Alg. 4, keeping pruned connections). Walks `cands` (ascending by
  /// distance to the base node) and keeps a candidate only when no kept
  /// neighbour lies closer to it than the base does, so the kept links
  /// spread across directions and bridge clusters instead of crowding
  /// into the nearest one; the candidates passed over then fill the
  /// remaining slots up to `cap`, closest first.
  std::vector<int> SelectNeighbors(const std::vector<Cand>& cands,
                                   size_t cap) const;

  /// Trims `row`'s layer-`layer` adjacency to the per-layer cap with
  /// SelectNeighbors over exact distances, ties by row.
  void PruneLinks(size_t row, int layer);

  Status AppendRows(const SignatureBlock& rows, size_t from, ThreadPool* pool);

  int MaxDegree(int layer) const { return layer == 0 ? 2 * params_.M
                                                     : params_.M; }

  HnswParams params_;
  int dim_ = 0;
  double inv_log_m_ = 1.0;
  std::vector<double> build_weights_;  // empty = all ones
  SignatureBlock block_;               // standardized rows, insertion order
  std::vector<int> levels_;            // per row
  std::vector<std::vector<std::vector<int>>> links_;  // [row][layer] -> rows
  int entry_ = -1;
  int max_level_ = -1;
};

}  // namespace dess

#endif  // DESS_INDEX_HNSW_H_
