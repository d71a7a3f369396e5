#ifndef DESS_SEARCH_SEARCH_ENGINE_H_
#define DESS_SEARCH_SEARCH_ENGINE_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/db/shape_database.h"
#include "src/index/index_backend.h"
#include "src/index/linear_scan.h"
#include "src/index/multidim_index.h"
#include "src/index/signature_block.h"
#include "src/search/query.h"
#include "src/search/similarity.h"

namespace dess {

class ThreadPool;

/// Immutable overlay of records ingested after an engine's main indexes
/// were built: one linear-scan SoA block per feature space, standardized
/// by the *base* calibration, so distances are directly comparable with
/// main-index distances and merged results are ordered exactly as one
/// index over the union would order them. Built by SearchEngine::Layer in
/// O(delta); shared (never mutated) once the layered engine is published.
struct DeltaSideIndex {
  /// Record-order row of the first side record — equal to the number of
  /// rows in every main block. Combined scans use it to place side rows.
  size_t first_row = 0;
  /// Per registry ordinal, the side index over the delta records.
  std::vector<std::unique_ptr<LinearScanIndex>> scans;
  /// Shape id -> side-local row (0-based within the side blocks).
  std::unordered_map<int, size_t> row_of;

  size_t NumRecords() const {
    return scans.empty() ? 0 : scans[0]->size();
  }
};

/// Which index structure backs each feature space.
enum class IndexBackend {
  kRTree,       // in-memory R-tree (the paper's DATABASE layer)
  kLinearScan,  // brute-force baseline
};

struct SearchEngineOptions {
  /// Index every feature space with an R-tree (true, the paper's DATABASE
  /// layer) or fall back to sequential scans (false, baseline). Ignored
  /// when `backend` is set explicitly.
  bool use_rtree = true;
  /// Standardize feature dimensions before distances (recommended: raw
  /// dimensions differ by orders of magnitude).
  bool standardize = true;
  /// Explicit backend selection; kRTree/kLinearScan mirror `use_rtree`.
  /// A space whose FeatureSpaceDef names a backend overrides this
  /// engine-wide choice.
  IndexBackend backend = IndexBackend::kRTree;
  /// String-keyed backend selection, resolved against `index_backends`;
  /// takes precedence over `backend`/`use_rtree` when non-empty. A space
  /// whose FeatureSpaceDef names a backend overrides this engine-wide
  /// choice.
  std::string index_backend;
  /// Backend registry the engine resolves ids against. Null means the
  /// built-ins (linear_scan, rtree, hnsw).
  std::shared_ptr<const IndexBackendRegistry> index_backends;
  /// Stage-1 candidate multiplier for approximate backends: a top-k query
  /// fetches k * approx_oversample graph candidates, re-scores them
  /// exactly against the packed block, and returns the best k. Exact
  /// backends ignore it.
  int approx_oversample = 4;
  /// Determinism seed for randomized (approximate) backends; the same
  /// corpus + seed builds the identical index at any thread count.
  uint64_t index_seed = 0;
  /// Optional pool for parallel index builds. Borrowed only for the
  /// build: the engine clears this pointer from its stored options, so a
  /// published engine never dangles a pool reference.
  ThreadPool* build_pool = nullptr;
  /// Feature spaces the engine serves. Null means the canonical registry
  /// (the paper's four descriptors). Every shape in the database must
  /// carry a vector for every registered space.
  std::shared_ptr<const FeatureSpaceRegistry> registry;
};

/// One space's index as a snapshot persisted it, handed to
/// SearchEngine::Rebuild on reopen. `graph` holds an approximate backend's
/// serialized structure (SearchEngine::SerializedIndexAt) and
/// `graph_backend` the id of the backend that wrote it; both are empty
/// when the snapshot carries none for the space.
struct PersistedIndex {
  std::string graph_backend;
  std::string graph;
};

/// Query-by-example engine over a frozen ShapeDatabase view: owns one
/// similarity space and one multidimensional index per feature kind.
///
/// The engine shares ownership of the database view it was built from, so
/// a built engine is self-contained and immutable: every query method is
/// const and safe to call from many threads concurrently. SetWeights is
/// the one mutator and must not race with queries; snapshot-published
/// engines never call it — per-query weights go through
/// QueryRequest::weights instead.
class SearchEngine {
 public:
  /// Builds similarity spaces and indexes from the database contents:
  /// CalibrateSpaces, then Rebuild. The engine keeps the view alive for
  /// its own lifetime.
  static Result<std::unique_ptr<SearchEngine>> Build(
      std::shared_ptr<const ShapeDatabase> db,
      const SearchEngineOptions& options = {});

  /// Calibrates one similarity space per registered feature space (stats,
  /// default weights, d_max) over the records of `db`: the spaces Build
  /// would serve. InvalidArgument when a record lacks a vector of a
  /// registered space's dimension.
  static Result<std::vector<SimilaritySpace>> CalibrateSpaces(
      const ShapeDatabase& db, const SearchEngineOptions& options = {});

  /// Like Build, but reuses previously calibrated similarity spaces
  /// instead of recalibrating over `db` — the frozen-calibration path
  /// (delta compaction, WAL recovery, snapshot reopen), which keeps every
  /// distance bit-identical to the engine the spaces came from. `spaces`
  /// must match the registry (options.registry, canonical when null):
  /// ids and weight dims are validated, contents are trusted. Every
  /// space's index is built through the backend the options resolve,
  /// exactly as Build builds it.
  ///
  /// `persisted` is the snapshot-reopen input: when non-null it holds one
  /// entry per registry space, and an approximate backend restores its
  /// structure from `graph` when `graph_backend` names it and the bytes
  /// deserialize, and otherwise rebuilds it from the packed rows
  /// (counters persist.graphs_restored / persist.graphs_rebuilt). Exact
  /// backends always build.
  static Result<std::unique_ptr<SearchEngine>> Rebuild(
      std::shared_ptr<const ShapeDatabase> db,
      const SearchEngineOptions& options,
      std::vector<SimilaritySpace> spaces,
      const std::vector<PersistedIndex>* persisted = nullptr);

  /// Builds a layered engine in O(delta): shares `base`'s similarity
  /// spaces, indexes, packed blocks and row map untouched, and indexes
  /// only the records of `full_db` beyond `base.db()`'s coverage into a
  /// DeltaSideIndex. `full_db` must extend the base view (same records in
  /// the same order, new ones appended); the base must not itself be
  /// layered. Queries merge main and side candidates at equal rank, so
  /// results are bit-identical to a frozen-calibration full rebuild.
  static Result<std::unique_ptr<SearchEngine>> Layer(
      const SearchEngine& base, std::shared_ptr<const ShapeDatabase> full_db);

  const ShapeDatabase& db() const { return *db_; }
  const SearchEngineOptions& options() const { return options_; }

  /// The feature spaces this engine serves.
  const FeatureSpaceRegistry& registry() const { return *registry_; }
  std::shared_ptr<const FeatureSpaceRegistry> shared_registry() const {
    return registry_;
  }
  int NumSpaces() const { return static_cast<int>(spaces_.size()); }

  /// Similarity space at one registry ordinal.
  const SimilaritySpace& SpaceAt(int ordinal) const {
    return spaces_[ordinal];
  }

  /// Registry ordinal of a space id; InvalidArgument when the id is not
  /// registered with this engine (the pinned unknown-space taxonomy).
  Result<int> ResolveSpace(const std::string& space_id) const {
    return registry_->Resolve(space_id);
  }

  /// The registry ordinals whose query-signature vectors `request` reads:
  /// the kTopK/kThreshold space, or each kMultiStep stage's space in plan
  /// order. InvalidArgument for an unknown id, an out-of-range kind, or an
  /// empty plan. QueryByMesh extracts only these spaces.
  Result<std::vector<int>> RequestSpaces(const QueryRequest& request) const;

  /// The backend id serving one space's main index.
  const std::string& BackendIdAt(int ordinal) const {
    return backends_[ordinal]->id;
  }
  /// False when the space's main index is approximate: top-k answers are
  /// exactly re-scored oversampled graph candidates, and multi-step plans
  /// widen their first-stage keep to compensate for recall.
  bool IsExactAt(int ordinal) const { return backends_[ordinal]->exact; }
  /// The bytes a snapshot persists for one space's main index (its graph
  /// section): the approximate backend's serialized structure. nullopt
  /// when there is nothing to persist — an exact backend (a reopen builds
  /// it from the packed rows), a backend without a serialize hook, an
  /// index the hook cannot serialize, or a layered engine, whose main
  /// index misses the side records every other section covers.
  std::optional<std::string> SerializedIndexAt(int ordinal) const;

  /// The packed standardized-signature block of one space (one row per
  /// database shape, in record order). Owned by the engine — and therefore
  /// by the snapshot that owns the engine — so it is immutable for the
  /// epoch and rebuilt on every Commit(). Batched re-rank, combined and
  /// feedback scoring read these instead of per-shape feature vectors.
  const SignatureBlock& BlockAt(int ordinal) const { return *blocks_[ordinal]; }

  /// Main-block row of a database shape (the same row across all spaces);
  /// nullopt for ids not covered by the main blocks — including delta
  /// records of a layered engine, which live in the side blocks instead
  /// (SideRowOf).
  std::optional<size_t> RowOf(int id) const {
    const auto it = row_of_->find(id);
    if (it == row_of_->end()) return std::nullopt;
    return it->second;
  }

  /// True for an engine built by Layer(): a delta side-index overlays the
  /// main blocks/indexes.
  bool HasSideIndex() const { return side_ != nullptr; }
  /// Number of delta records in the side-index (0 without one).
  size_t NumSideRecords() const {
    return side_ == nullptr ? 0 : side_->NumRecords();
  }
  /// Rows in every main block — the record-order offset of side row 0.
  size_t NumMainRows() const {
    return blocks_.empty() ? 0 : blocks_[0]->size();
  }
  /// The side-index block of one space; HasSideIndex() must hold.
  const SignatureBlock& SideBlockAt(int ordinal) const {
    return side_->scans[ordinal]->block();
  }
  /// Side-local row of a delta record; nullopt for main-block ids and
  /// unknown ids.
  std::optional<size_t> SideRowOf(int id) const {
    if (side_ == nullptr) return std::nullopt;
    const auto it = side_->row_of.find(id);
    if (it == side_->row_of.end()) return std::nullopt;
    return it->second;
  }

  /// Executes one self-describing query (kTopK, kThreshold or kMultiStep)
  /// against an external query signature — with QueryById, the engine's
  /// only query surface. Honors `request.weights` and `request.deadline`;
  /// fills QueryResponse::stats (epoch is left 0 — the snapshot layer
  /// stamps it). A top-k or threshold query reads only the signature's
  /// vector at the addressed space's ordinal.
  Result<QueryResponse> Query(const ShapeSignature& query,
                              const QueryRequest& request) const;

  /// Same, with a database shape as the query (always excluded from its own
  /// results, as in the paper's effectiveness protocol).
  Result<QueryResponse> QueryById(int query_id,
                                  const QueryRequest& request) const;

  /// Replaces the per-dimension weights of one feature space. Size must
  /// match the feature dim. Mutates the engine: only valid on an engine the
  /// caller exclusively owns, never on one published in a snapshot (use
  /// QueryRequest::weights there).
  Status SetWeights(int ordinal, const std::vector<double>& weights);

  /// Re-ranks an explicit candidate set by distance to the query in the
  /// given feature space — the second and later passes of multi-step
  /// search. Candidates not in the database are an error. `keep` > 0
  /// returns only the best `keep` results (partial selection instead of a
  /// full sort — identical to sorting and truncating, ties break by id);
  /// 0 keeps every candidate.
  Result<std::vector<SearchResult>> Rerank(
      const std::vector<int>& candidate_ids,
      const std::vector<double>& raw_feature, int ordinal,
      size_t keep = 0) const;

 private:
  SearchEngine() = default;

  /// Validates an ordinal arriving from a query surface (enum casts and
  /// signature indexes included): InvalidArgument when out of range.
  Status CheckOrdinal(int ordinal) const;

  /// The space a QueryRequest (or a multi-step stage) addresses: `space`
  /// when set (resolved through the registry), else the legacy `kind`.
  Result<int> SpaceOrdinal(const std::string& space, FeatureKind kind) const;

  /// Shared body of Query and QueryById: a null `query` means query by the
  /// database shape `query_id`, which is excluded from its own results.
  Result<QueryResponse> Execute(const ShapeSignature* query, int query_id,
                                const QueryRequest& request) const;

  /// The kMultiStep body of Execute (same query/query_id convention),
  /// defined in multistep.cc: stage 1 searches the index, later stages
  /// re-rank the survivors. Appends one StageTiming per executed stage
  /// ("search.query_topk", then "search.rerank"), checks the deadline
  /// before every stage, and accumulates work into response->stats.
  Status RunPlan(const ShapeSignature* query, int query_id,
                 const QueryRequest& request, QueryResponse* response) const;

  /// Shared top-k path over a validated ordinal; `weights` nullptr means
  /// the space's installed weights.
  Result<std::vector<SearchResult>> QueryTopKImpl(
      const std::vector<double>& raw_feature, int ordinal, size_t k,
      const std::vector<double>* weights, QueryStats* stats) const;

  Result<std::vector<SearchResult>> QueryThresholdImpl(
      const std::vector<double>& raw_feature, int ordinal,
      double min_similarity, const std::vector<double>* weights,
      QueryStats* stats) const;

  /// Validates request.weights against the space at `ordinal` (empty is
  /// always valid).
  Status CheckRequestWeights(const QueryRequest& request, int ordinal) const;

  /// Packs every space's standardized vectors into blocks_ (record order)
  /// and fills row_of_. Shared by Build and Rebuild.
  Status PackSignatureBlocks();

  /// Resolves backends_ from the options and registry, then builds every
  /// space's index through its backend's factory — or, for an approximate
  /// space of a reopened snapshot, restores it from `persisted` (see
  /// Rebuild). Shared by Build and Rebuild; requires blocks_ to be packed.
  Status BuildIndexes(const std::vector<PersistedIndex>* persisted = nullptr);

  /// Builds one space's index over its packed block through the backend's
  /// factory, or restores it with the backend's deserialize hook when
  /// `graph` is non-null. Validates the result's shape and binds the
  /// backend's metric family. Requires backends_ and blocks_.
  Result<std::unique_ptr<MultiDimIndex>> MakeIndex(
      int ordinal, const std::string* graph) const;

  std::shared_ptr<const ShapeDatabase> db_;
  SearchEngineOptions options_;
  std::shared_ptr<const FeatureSpaceRegistry> registry_;
  // Per registry ordinal, the backend serving the main index: its id plus
  // the capability flags every query path branches on. Resolved once at
  // build time and copied by Layer; the pointees live in
  // options_.index_backends (kept alive by the engine's own options) or in
  // the static built-ins.
  std::vector<const IndexBackendDef*> backends_;
  std::vector<SimilaritySpace> spaces_;
  // Indexes, packed blocks and the row map are immutable once built and
  // shared untouched with engines layered on top of this one, so a delta
  // publish is O(delta), not O(corpus).
  std::vector<std::shared_ptr<const MultiDimIndex>> indexes_;
  std::vector<std::shared_ptr<const SignatureBlock>> blocks_;
  std::shared_ptr<const std::unordered_map<int, size_t>> row_of_;
  std::shared_ptr<const DeltaSideIndex> side_;
};

}  // namespace dess

#endif  // DESS_SEARCH_SEARCH_ENGINE_H_
