#include "src/search/search_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/index/distance_kernel.h"
#include "src/index/linear_scan.h"

namespace dess {
namespace {

Status CheckDeadline(const QueryRequest& request) {
  if (request.has_deadline() &&
      std::chrono::steady_clock::now() > request.deadline) {
    return Status::DeadlineExceeded("query deadline passed");
  }
  return Status::OK();
}

/// The backend id serving one space, in precedence order: the space's
/// explicit FeatureSpaceDef::index_backend, the engine-wide
/// SearchEngineOptions::index_backend, and finally the legacy
/// enum/use_rtree pair.
std::string ResolveIndexBackendId(const SearchEngineOptions& options,
                                  const FeatureSpaceDef& def) {
  if (!def.index_backend.empty()) return def.index_backend;
  if (!options.index_backend.empty()) return options.index_backend;
  return options.backend == IndexBackend::kLinearScan || !options.use_rtree
             ? kLinearScanBackendId
             : kRTreeBackendId;
}

}  // namespace

Status SearchEngine::PackSignatureBlocks() {
  blocks_.assign(spaces_.size(), nullptr);
  auto row_map = std::make_shared<std::unordered_map<int, size_t>>();
  row_map->reserve(db_->NumShapes());
  size_t row = 0;
  for (const ShapeRecord& rec : db_->records()) (*row_map)[rec.id] = row++;
  row_of_ = std::move(row_map);
  for (int ordinal = 0; ordinal < static_cast<int>(spaces_.size());
       ++ordinal) {
    const int dim = registry_->dim(ordinal);
    auto block = std::make_shared<SignatureBlock>(dim);
    block->Reserve(db_->NumShapes());
    for (const ShapeRecord& rec : db_->records()) {
      if (ordinal >= rec.signature.NumSpaces() ||
          rec.signature.At(ordinal).dim() != dim) {
        return Status::InvalidArgument(StrFormat(
            "shape %d carries no %d-dim vector for feature space '%s'",
            rec.id, dim, registry_->id(ordinal).c_str()));
      }
      block->Append(
          rec.id, spaces_[ordinal].Standardize(rec.signature.At(ordinal).values));
    }
    blocks_[ordinal] = std::move(block);
  }
  return Status::OK();
}

Result<std::vector<SimilaritySpace>> SearchEngine::CalibrateSpaces(
    const ShapeDatabase& db, const SearchEngineOptions& options) {
  const std::shared_ptr<const FeatureSpaceRegistry> registry =
      RegistryOrCanonical(options.registry);
  std::vector<SimilaritySpace> spaces(registry->size());
  for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
    const FeatureSpaceDef& def = registry->space(ordinal);
    const int dim = def.dim;
    std::vector<std::vector<double>> raw;
    raw.reserve(db.NumShapes());
    for (const ShapeRecord& rec : db.records()) {
      if (ordinal >= rec.signature.NumSpaces()) {
        return Status::InvalidArgument(StrFormat(
            "shape %d carries no vector for feature space '%s'", rec.id,
            def.id.c_str()));
      }
      const FeatureVector& fv = rec.signature.At(ordinal);
      if (fv.dim() != dim) {
        return Status::InvalidArgument(
            StrFormat("shape %d: feature '%s' has dim %d, expected %d",
                      rec.id, def.id.c_str(), fv.dim(), dim));
      }
      raw.push_back(fv.values);
    }
    // A space opts out of standardization (histograms) via its definition;
    // the engine-wide flag still disables it globally.
    spaces[ordinal] =
        BuildSimilaritySpace(def.id, static_cast<FeatureKind>(ordinal), raw,
                             options.standardize && def.standardize);
    if (!def.default_weights.empty()) {
      spaces[ordinal].weights = def.default_weights;
    }
  }
  return spaces;
}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Build(
    std::shared_ptr<const ShapeDatabase> db,
    const SearchEngineOptions& options) {
  if (db == nullptr || db->IsEmpty()) {
    return Status::InvalidArgument("search engine: empty database");
  }
  DESS_ASSIGN_OR_RETURN(std::vector<SimilaritySpace> spaces,
                        CalibrateSpaces(*db, options));
  return Rebuild(std::move(db), options, std::move(spaces));
}

Result<std::unique_ptr<MultiDimIndex>> SearchEngine::MakeIndex(
    int ordinal, const std::string* graph) const {
  const IndexBackendDef& backend = *backends_[ordinal];
  const FeatureSpaceDef& def = registry_->space(ordinal);
  IndexBuildContext ctx;
  ctx.dim = def.dim;
  ctx.block = blocks_[ordinal].get();
  ctx.weights = &spaces_[ordinal].weights;
  ctx.pool = options_.build_pool;
  ctx.seed = options_.index_seed + static_cast<uint64_t>(ordinal);
  ctx.space_id = def.id;
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<MultiDimIndex> index,
                        graph == nullptr ? backend.factory(ctx)
                                         : backend.deserialize(ctx, *graph));
  if (index == nullptr || index->dim() != def.dim ||
      index->size() != ctx.block->size()) {
    return Status::Internal(StrFormat(
        "index backend '%s' built an inconsistent index for space '%s'",
        backend.id.c_str(), def.id.c_str()));
  }
  // The metric family follows the registered id, so a re-registered
  // backend surfaces as index.<id>.* without code changes.
  index->BindMetricFamily(backend.id);
  return index;
}

Status SearchEngine::BuildIndexes(
    const std::vector<PersistedIndex>* persisted) {
  const IndexBackendRegistry& backends =
      BackendsOrBuiltIns(options_.index_backends);
  backends_.assign(registry_->size(), nullptr);
  indexes_.assign(registry_->size(), nullptr);
  MetricsRegistry* metrics = MetricsRegistry::Global();
  for (int ordinal = 0; ordinal < registry_->size(); ++ordinal) {
    DESS_ASSIGN_OR_RETURN(
        backends_[ordinal],
        backends.Resolve(
            ResolveIndexBackendId(options_, registry_->space(ordinal))));
    const IndexBackendDef& backend = *backends_[ordinal];
    if (persisted == nullptr || backend.exact) {
      DESS_ASSIGN_OR_RETURN(indexes_[ordinal], MakeIndex(ordinal, nullptr));
      continue;
    }
    // An approximate structure is an accelerator, never the data of
    // record: restore it only from bytes its own backend wrote, and on
    // absent, foreign or unusable bytes rebuild it deterministically.
    const PersistedIndex& saved = (*persisted)[ordinal];
    if (backend.deserialize && saved.graph_backend == backend.id) {
      Result<std::unique_ptr<MultiDimIndex>> restored =
          MakeIndex(ordinal, &saved.graph);
      if (restored.ok()) {
        indexes_[ordinal] = std::move(restored).value();
        metrics->AddCounter("persist.graphs_restored");
        continue;
      }
    }
    DESS_ASSIGN_OR_RETURN(indexes_[ordinal], MakeIndex(ordinal, nullptr));
    metrics->AddCounter("persist.graphs_rebuilt");
  }
  // The pool was borrowed for the build only; a published engine must not
  // dangle a reference to it.
  options_.build_pool = nullptr;
  return Status::OK();
}

std::optional<std::string> SearchEngine::SerializedIndexAt(
    int ordinal) const {
  const IndexBackendDef& backend = *backends_[ordinal];
  if (backend.exact || !backend.serialize || NumSideRecords() > 0) {
    return std::nullopt;
  }
  Result<std::string> bytes = backend.serialize(*indexes_[ordinal]);
  if (!bytes.ok()) return std::nullopt;
  return std::move(bytes).value();
}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Rebuild(
    std::shared_ptr<const ShapeDatabase> db,
    const SearchEngineOptions& options, std::vector<SimilaritySpace> spaces,
    const std::vector<PersistedIndex>* persisted) {
  if (db == nullptr || db->IsEmpty()) {
    return Status::InvalidArgument("search engine: empty database");
  }
  std::unique_ptr<SearchEngine> engine(new SearchEngine());
  engine->db_ = std::move(db);
  engine->options_ = options;
  engine->registry_ = RegistryOrCanonical(options.registry);
  const FeatureSpaceRegistry& registry = *engine->registry_;
  if (static_cast<int>(spaces.size()) != registry.size()) {
    return Status::InvalidArgument(
        StrFormat("%zu similarity spaces for a %d-space registry",
                  spaces.size(), registry.size()));
  }
  if (persisted != nullptr && persisted->size() != spaces.size()) {
    return Status::InvalidArgument(
        StrFormat("%zu persisted indexes for a %d-space registry",
                  persisted->size(), registry.size()));
  }
  for (int i = 0; i < registry.size(); ++i) {
    const std::string& id = registry.id(i);
    const int dim = registry.dim(i);
    if (spaces[i].id != id) {
      return Status::InvalidArgument(
          StrFormat("space %d is '%s', registry expects '%s'", i,
                    spaces[i].id.c_str(), id.c_str()));
    }
    if (static_cast<int>(spaces[i].weights.size()) != dim) {
      return Status::InvalidArgument(
          StrFormat("space '%s' has %zu weights, expected %d", id.c_str(),
                    spaces[i].weights.size(), dim));
    }
  }
  engine->spaces_ = std::move(spaces);
  // The frozen stats make standardization bit-reproducible, so the packed
  // blocks — and every index built over them — match the engine the
  // spaces came from.
  DESS_RETURN_NOT_OK(engine->PackSignatureBlocks());
  DESS_RETURN_NOT_OK(engine->BuildIndexes(persisted));
  return engine;
}

Result<std::unique_ptr<SearchEngine>> SearchEngine::Layer(
    const SearchEngine& base, std::shared_ptr<const ShapeDatabase> full_db) {
  if (full_db == nullptr) {
    return Status::InvalidArgument("layer: null database view");
  }
  if (base.side_ != nullptr) {
    // One side level only: the system always layers over the last *full*
    // snapshot, growing a single side until compaction folds it in.
    return Status::InvalidArgument(
        "layer: base engine is already layered; compact it first");
  }
  const size_t base_rows = base.NumMainRows();
  if (full_db->NumShapes() < base_rows) {
    return Status::InvalidArgument(
        "layer: database view is smaller than the base engine");
  }
  std::unique_ptr<SearchEngine> engine(new SearchEngine());
  engine->db_ = std::move(full_db);
  engine->options_ = base.options_;
  engine->registry_ = base.registry_;
  engine->backends_ = base.backends_;
  engine->spaces_ = base.spaces_;  // frozen calibration
  engine->indexes_ = base.indexes_;
  engine->blocks_ = base.blocks_;
  engine->row_of_ = base.row_of_;

  auto side = std::make_unique<DeltaSideIndex>();
  side->first_row = base_rows;
  const FeatureSpaceRegistry& registry = *engine->registry_;
  side->scans.reserve(registry.size());
  for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
    side->scans.push_back(
        std::make_unique<LinearScanIndex>(registry.dim(ordinal)));
  }
  size_t row = 0;
  size_t side_row = 0;
  for (const ShapeRecord& rec : engine->db_->records()) {
    if (row++ < base_rows) continue;  // covered by the main indexes
    for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
      const int dim = registry.dim(ordinal);
      if (ordinal >= rec.signature.NumSpaces() ||
          rec.signature.At(ordinal).dim() != dim) {
        return Status::InvalidArgument(StrFormat(
            "shape %d carries no %d-dim vector for feature space '%s'",
            rec.id, dim, registry.id(ordinal).c_str()));
      }
      DESS_RETURN_NOT_OK(side->scans[ordinal]->Insert(
          rec.id, engine->spaces_[ordinal].Standardize(
                      rec.signature.At(ordinal).values)));
    }
    side->row_of[rec.id] = side_row++;
  }
  engine->side_ = std::move(side);
  return engine;
}

Status SearchEngine::CheckOrdinal(int ordinal) const {
  if (ordinal < 0 || ordinal >= NumSpaces()) {
    return Status::InvalidArgument(
        StrFormat("feature-space ordinal %d out of range [0, %d)", ordinal,
                  NumSpaces()));
  }
  return Status::OK();
}

Result<int> SearchEngine::SpaceOrdinal(const std::string& space,
                                       FeatureKind kind) const {
  if (!space.empty()) return registry_->Resolve(space);
  const int ordinal = static_cast<int>(kind);
  DESS_RETURN_NOT_OK(CheckOrdinal(ordinal));
  return ordinal;
}

Result<std::vector<int>> SearchEngine::RequestSpaces(
    const QueryRequest& request) const {
  std::vector<int> ordinals;
  if (request.mode != QueryMode::kMultiStep) {
    DESS_ASSIGN_OR_RETURN(const int ordinal,
                          SpaceOrdinal(request.space, request.kind));
    ordinals.push_back(ordinal);
    return ordinals;
  }
  if (request.plan.stages.empty()) {
    return Status::InvalidArgument("multi-step: empty plan");
  }
  for (const MultiStepStage& stage : request.plan.stages) {
    DESS_ASSIGN_OR_RETURN(const int ordinal,
                          SpaceOrdinal(stage.space, stage.kind));
    ordinals.push_back(ordinal);
  }
  return ordinals;
}

Status SearchEngine::SetWeights(int ordinal,
                                const std::vector<double>& weights) {
  DESS_RETURN_NOT_OK(CheckOrdinal(ordinal));
  SimilaritySpace& space = spaces_[ordinal];
  if (weights.size() != space.weights.size()) {
    return Status::InvalidArgument(
        StrFormat("weights dim %zu != feature dim %zu", weights.size(),
                  space.weights.size()));
  }
  for (double w : weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("weights must be non-negative");
    }
  }
  space.weights = weights;
  return Status::OK();
}

Status SearchEngine::CheckRequestWeights(const QueryRequest& request,
                                         int ordinal) const {
  if (request.weights.empty()) return Status::OK();
  const SimilaritySpace& space = spaces_[ordinal];
  if (request.weights.size() != space.weights.size()) {
    return Status::InvalidArgument(
        StrFormat("request weights dim %zu != feature dim %zu",
                  request.weights.size(), space.weights.size()));
  }
  for (double w : request.weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("request weights must be non-negative");
    }
  }
  return Status::OK();
}

namespace {

std::vector<SearchResult> ToResults(const std::vector<Neighbor>& neighbors,
                                    const SimilaritySpace& space) {
  std::vector<SearchResult> out;
  out.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    out.push_back({n.id, n.distance, space.Similarity(n.distance)});
  }
  return out;
}

/// Engine-level query accounting, shared by the top-k and threshold paths.
void RecordEngineQuery(size_t results_returned, const QueryStats& work) {
  MetricsRegistry* registry = MetricsRegistry::Global();
  if (!registry->enabled()) return;
  registry->AddCounter("search.queries");
  registry->AddCounter("search.results_returned", results_returned);
  registry->AddCounter("search.distance_evals", work.points_compared);
}

}  // namespace

Result<std::vector<SearchResult>> SearchEngine::QueryTopKImpl(
    const std::vector<double>& raw_feature, int ordinal, size_t k,
    const std::vector<double>* weights, QueryStats* stats) const {
  const int ki = ordinal;
  if (static_cast<int>(raw_feature.size()) != registry_->dim(ordinal)) {
    return Status::InvalidArgument("query feature dimension mismatch");
  }
  DESS_TIMED_SCOPE("search.query_topk");
  const std::vector<double>& w =
      weights != nullptr ? *weights : spaces_[ki].weights;
  const std::vector<double> q = spaces_[ki].Standardize(raw_feature);
  QueryStats work;
  std::vector<Neighbor> neighbors;
  if (backends_[ki]->exact) {
    neighbors = indexes_[ki]->KNearest(q, k, w, &work);
  } else {
    // Approximate stage 1: oversample graph candidates, then re-score
    // every candidate exactly against the packed block. Approximate
    // distances are navigation hints, never final scores — the results
    // below are bit-comparable with an exact backend's (modulo recall).
    const size_t oversample =
        static_cast<size_t>(std::max(1, options_.approx_oversample));
    const size_t cap = NumMainRows();
    const size_t fetch = std::min(cap, k > cap / oversample ? cap
                                                            : k * oversample);
    neighbors = indexes_[ki]->KNearest(q, fetch, w, &work);
    const SignatureBlock& block = *blocks_[ki];
    const double* wp = w.empty() ? nullptr : w.data();
    for (Neighbor& n : neighbors) {
      const std::optional<size_t> row = RowOf(n.id);
      if (!row.has_value()) continue;  // main indexes only hold main rows
      n.distance = RowWeightedL2(block, *row, q.data(), wp);
    }
    work.points_compared += neighbors.size();
    std::sort(neighbors.begin(), neighbors.end());
    if (neighbors.size() > k) neighbors.resize(k);
  }
  if (side_ != nullptr && side_->NumRecords() > 0) {
    std::vector<Neighbor> extra = side_->scans[ki]->KNearest(q, k, w, &work);
    neighbors.insert(neighbors.end(), extra.begin(), extra.end());
    // Both runs are ordered by (distance, id); re-sorting the
    // concatenation under the same total order yields exactly what one
    // index over the union would return.
    std::sort(neighbors.begin(), neighbors.end());
    if (neighbors.size() > k) neighbors.resize(k);
  }
  std::vector<SearchResult> results = ToResults(neighbors, spaces_[ki]);
  if (stats != nullptr) stats->MergeFrom(work);
  RecordEngineQuery(results.size(), work);
  return results;
}

Result<std::vector<SearchResult>> SearchEngine::QueryThresholdImpl(
    const std::vector<double>& raw_feature, int ordinal,
    double min_similarity, const std::vector<double>* weights,
    QueryStats* stats) const {
  const int ki = ordinal;
  if (static_cast<int>(raw_feature.size()) != registry_->dim(ordinal)) {
    return Status::InvalidArgument("query feature dimension mismatch");
  }
  if (min_similarity < 0.0 || min_similarity > 1.0) {
    return Status::InvalidArgument("similarity threshold must be in [0, 1]");
  }
  // s >= s_min  <=>  d <= (1 - s_min) * dmax: a ball (range) query.
  DESS_TIMED_SCOPE("search.query_threshold");
  const std::vector<double>& w =
      weights != nullptr ? *weights : spaces_[ki].weights;
  const double radius = (1.0 - min_similarity) * spaces_[ki].dmax;
  const std::vector<double> q = spaces_[ki].Standardize(raw_feature);
  QueryStats work;
  std::vector<Neighbor> neighbors;
  if (backends_[ki]->supports_range) {
    neighbors = indexes_[ki]->RangeQuery(q, radius, w, &work);
  } else {
    // A backend without exact range support (the approximate graph) never
    // answers threshold queries: the contract is "all shapes above the
    // similarity floor", so fall back to an exact batched scan of the
    // packed block — same kernel, bitwise-identical distances.
    const SignatureBlock& block = *blocks_[ki];
    const size_t n = block.size();
    std::vector<double> dist(n);
    {
      DESS_TIMED_SCOPE("kernel.batch");
      BatchedWeightedL2(block, q.data(), w.empty() ? nullptr : w.data(),
                        dist.data());
    }
    for (size_t r = 0; r < n; ++r) {
      if (dist[r] <= radius) neighbors.push_back({block.id(r), dist[r]});
    }
    std::sort(neighbors.begin(), neighbors.end());
    work.nodes_visited += 1;
    work.leaves_scanned += 1;
    work.points_compared += n;
    work.kernel_batches += 1;
  }
  if (side_ != nullptr && side_->NumRecords() > 0) {
    std::vector<Neighbor> extra =
        side_->scans[ki]->RangeQuery(q, radius, w, &work);
    neighbors.insert(neighbors.end(), extra.begin(), extra.end());
    std::sort(neighbors.begin(), neighbors.end());
  }
  std::vector<SearchResult> results = ToResults(neighbors, spaces_[ki]);
  if (stats != nullptr) stats->MergeFrom(work);
  RecordEngineQuery(results.size(), work);
  return results;
}

Result<QueryResponse> SearchEngine::Query(const ShapeSignature& query,
                                          const QueryRequest& request) const {
  return Execute(&query, /*query_id=*/-1, request);
}

Result<QueryResponse> SearchEngine::QueryById(
    int query_id, const QueryRequest& request) const {
  return Execute(/*query=*/nullptr, query_id, request);
}

Result<QueryResponse> SearchEngine::Execute(const ShapeSignature* query,
                                            int query_id,
                                            const QueryRequest& request) const {
  DESS_RETURN_NOT_OK(CheckDeadline(request));
  QueryResponse response;
  if (request.mode == QueryMode::kMultiStep) {
    DESS_RETURN_NOT_OK(RunPlan(query, query_id, request, &response));
    return response;
  }
  DESS_ASSIGN_OR_RETURN(const int ordinal,
                        SpaceOrdinal(request.space, request.kind));
  DESS_RETURN_NOT_OK(CheckRequestWeights(request, ordinal));
  std::vector<double> stored;
  if (query == nullptr) {
    DESS_ASSIGN_OR_RETURN(stored, db_->Feature(query_id, ordinal));
  } else if (ordinal >= query->NumSpaces()) {
    return Status::InvalidArgument(
        "query signature carries no vector for feature space '" +
        registry_->id(ordinal) + "'");
  }
  const std::vector<double>& raw =
      query == nullptr ? stored : query->At(ordinal).values;
  const std::vector<double>* w =
      request.weights.empty() ? nullptr : &request.weights;
  const bool top_k = request.mode == QueryMode::kTopK;
  const auto start = std::chrono::steady_clock::now();
  if (top_k) {
    // By id, fetch one extra so the count survives dropping the query
    // itself — saturating, so a wire k of SIZE_MAX cannot wrap to 0.
    const size_t fetch =
        query != nullptr || request.k == std::numeric_limits<size_t>::max()
            ? request.k
            : request.k + 1;
    DESS_ASSIGN_OR_RETURN(
        response.results,
        QueryTopKImpl(raw, ordinal, fetch, w, &response.stats));
  } else {
    DESS_ASSIGN_OR_RETURN(
        response.results,
        QueryThresholdImpl(raw, ordinal, request.min_similarity, w,
                           &response.stats));
  }
  if (query == nullptr) {
    std::erase_if(response.results,
                  [&](const SearchResult& r) { return r.id == query_id; });
  }
  if (top_k && response.results.size() > request.k) {
    response.results.resize(request.k);
  }
  response.stage_timings.push_back(MakeStageTiming(
      top_k ? "search.query_topk" : "search.query_threshold",
      request.deadline, start, std::chrono::steady_clock::now()));
  return response;
}

Result<std::vector<SearchResult>> SearchEngine::Rerank(
    const std::vector<int>& candidate_ids,
    const std::vector<double>& raw_feature, int ordinal,
    size_t keep) const {
  DESS_RETURN_NOT_OK(CheckOrdinal(ordinal));
  if (static_cast<int>(raw_feature.size()) != registry_->dim(ordinal)) {
    return Status::InvalidArgument("rerank feature dimension mismatch");
  }
  DESS_TIMED_SCOPE("search.rerank");
  const SimilaritySpace& space = spaces_[ordinal];
  const std::vector<double> q = space.Standardize(raw_feature);
  const SignatureBlock& block = *blocks_[ordinal];
  const double* w = space.weights.empty() ? nullptr : space.weights.data();
  std::vector<SearchResult> out;
  out.reserve(candidate_ids.size());
  DESS_TIMED_SCOPE("kernel.batch");
  TraceAnnotate("rows", candidate_ids.size());
  for (int id : candidate_ids) {
    const std::optional<size_t> row = RowOf(id);
    if (!row.has_value()) {
      // Delta records of a layered engine live in the side blocks.
      const std::optional<size_t> side_row = SideRowOf(id);
      if (side_row.has_value()) {
        const double d =
            RowWeightedL2(SideBlockAt(ordinal), *side_row, q.data(), w);
        out.push_back({id, d, space.Similarity(d)});
        continue;
      }
      // Unknown candidate: surface the database's own error taxonomy.
      DESS_ASSIGN_OR_RETURN(std::vector<double> raw,
                            db_->Feature(id, ordinal));
      const double d = space.Distance(q, space.Standardize(raw));
      out.push_back({id, d, space.Similarity(d)});
      continue;
    }
    // Gathered row read of the packed block: same standardized values and
    // the reference op order, so distances match the per-vector path
    // bitwise.
    const double d = RowWeightedL2(block, *row, q.data(), w);
    out.push_back({id, d, space.Similarity(d)});
  }
  PartialSortSmallest(&out, keep > 0 ? keep : out.size());
  MetricsRegistry* registry = MetricsRegistry::Global();
  if (registry->enabled()) {
    registry->AddCounter("search.rerank_candidates", candidate_ids.size());
    registry->AddCounter("search.distance_evals", candidate_ids.size());
  }
  return out;
}

}  // namespace dess
