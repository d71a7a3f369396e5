#ifndef DESS_CORE_SNAPSHOT_H_
#define DESS_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/hierarchy.h"
#include "src/core/persistence.h"
#include "src/db/shape_database.h"
#include "src/search/query.h"
#include "src/search/search_engine.h"

namespace dess {

/// An immutable, self-contained view of one committed system state: a
/// frozen record-store view, the search engine (similarity spaces +
/// indexes) built over it, and the per-feature browsing hierarchies.
///
/// Snapshots are the unit of concurrency in the serving layer:
///  - Commit() builds the next snapshot off to the side while the current
///    one keeps serving, then publishes it with one shared_ptr swap.
///  - Query threads acquire a snapshot once and execute lock-free against
///    it; nothing they can reach through it ever mutates.
///  - A superseded snapshot stays alive until its last in-flight query
///    drops its reference, then the shared_ptr count reclaims it. Commits
///    never wait for queries; queries never observe a half-built index.
///
/// `epoch` identifies which commit produced the snapshot (1 for the first
/// Commit(), increasing by one per publish); every QueryResponse carries
/// the epoch of the snapshot that answered it.
class SystemSnapshot {
 public:
  /// Builds a snapshot over a frozen database view. The snapshot shares
  /// ownership of the view; nothing else may mutate it.
  static Result<std::shared_ptr<const SystemSnapshot>> Build(
      std::shared_ptr<const ShapeDatabase> db, uint64_t epoch,
      const SearchEngineOptions& search_options,
      const HierarchyOptions& hierarchy_options);

  /// Like Build, but reuses previously calibrated similarity spaces
  /// instead of recalibrating over `db`. This is the compaction/recovery
  /// path: folding a delta side-index into full per-space indexes without
  /// recalibration keeps every distance — and therefore every query
  /// result — bit-identical to the layered snapshot it replaces.
  static Result<std::shared_ptr<const SystemSnapshot>> BuildWithSpaces(
      std::shared_ptr<const ShapeDatabase> db, uint64_t epoch,
      const SearchEngineOptions& search_options,
      const HierarchyOptions& hierarchy_options,
      std::vector<SimilaritySpace> spaces);

  /// Publishes a delta commit in O(delta): layers the records of
  /// `full_view` beyond `base`'s coverage as a side-index over base's
  /// engine (indexes, packed blocks and calibration shared untouched) and
  /// reuses base's browsing hierarchies. Queries merge main and side
  /// candidates, bit-identical to a frozen-calibration full rebuild;
  /// hierarchies cover only the base records until the next full commit
  /// or compaction folds the delta in. `base` must be a full (non-layered)
  /// snapshot and `full_view` must extend its record view.
  static Result<std::shared_ptr<const SystemSnapshot>> LayerDelta(
      const std::shared_ptr<const SystemSnapshot>& base,
      std::shared_ptr<const ShapeDatabase> full_view, uint64_t epoch);

  /// Assembles a snapshot from preloaded parts — the persistence layer's
  /// cold-start path (Dess3System::OpenFromSnapshot), which restores the
  /// calibration and hierarchies from disk instead of recomputing them. All
  /// parts must describe the same committed state; basic consistency is
  /// validated, contents are trusted.
  /// `hierarchies[i]` is the browsing hierarchy of the engine's i-th
  /// feature space (one per registered space).
  static Result<std::shared_ptr<const SystemSnapshot>> Assemble(
      std::shared_ptr<const ShapeDatabase> db, uint64_t epoch,
      std::unique_ptr<SearchEngine> engine,
      std::vector<std::unique_ptr<HierarchyNode>> hierarchies);

  /// Persists this snapshot as a versioned on-disk directory (see
  /// persistence.h for the format and failure taxonomy): the frozen record
  /// store (meshes per `options`), all four feature-vector sets, the
  /// similarity spaces, the browsing hierarchies, any approximate index's
  /// graph, and a checksummed manifest carrying this snapshot's epoch.
  /// The directory is staged as `<dir>.tmp` and renamed into place; a
  /// snapshot it replaces is renamed to `<dir>.old` first and removed
  /// only after, so a crash never leaves a half-written snapshot at the
  /// target path, and OpenFromSnapshot finishes an interrupted swap.
  /// Reopening yields a system that answers queries identically to this
  /// snapshot.
  Status SaveTo(const std::string& dir, const SaveOptions& options = {})
      const;

  uint64_t epoch() const { return epoch_; }

  const ShapeDatabase& db() const { return *db_; }

  /// The snapshot's search engine. Immutable: call only const query
  /// methods; per-query weights go through QueryRequest::weights.
  const SearchEngine& engine() const { return *engine_; }

  /// Number of records served from the delta side-index (0 for a full
  /// snapshot). A layered snapshot's engine covers base + delta; its
  /// hierarchies cover only the base records.
  size_t NumDeltaRecords() const { return engine_->NumSideRecords(); }

  /// Browsing hierarchy for one feature kind / registry ordinal.
  const HierarchyNode& Hierarchy(FeatureKind kind) const {
    return *hierarchies_[static_cast<int>(kind)];
  }
  const HierarchyNode& Hierarchy(int ordinal) const {
    return *hierarchies_[ordinal];
  }
  /// Browsing hierarchy of a registered feature space by id;
  /// InvalidArgument for an unknown id.
  Result<const HierarchyNode*> Hierarchy(const std::string& space_id) const;

  int NumHierarchies() const { return static_cast<int>(hierarchies_.size()); }

  /// Executes a query against this snapshot and stamps the response with
  /// this snapshot's epoch. Safe to call from any number of threads.
  Result<QueryResponse> Query(const ShapeSignature& query,
                              const QueryRequest& request) const;

  /// Same, with a database shape as the query (excluded from its own
  /// results).
  Result<QueryResponse> QueryById(int query_id,
                                  const QueryRequest& request) const;

 private:
  SystemSnapshot() = default;

  /// Shared Build/BuildWithSpaces body; `frozen_spaces` null means
  /// recalibrate over `db`.
  static Result<std::shared_ptr<const SystemSnapshot>> BuildImpl(
      std::shared_ptr<const ShapeDatabase> db, uint64_t epoch,
      const SearchEngineOptions& search_options,
      const HierarchyOptions& hierarchy_options,
      std::vector<SimilaritySpace>* frozen_spaces);

  uint64_t epoch_ = 0;
  std::shared_ptr<const ShapeDatabase> db_;
  std::unique_ptr<SearchEngine> engine_;
  // One browsing hierarchy per registered feature space, in registry
  // order. Shared (const) so a delta snapshot can reuse its base's
  // hierarchies without copying them.
  std::vector<std::shared_ptr<const HierarchyNode>> hierarchies_;
};

}  // namespace dess

#endif  // DESS_CORE_SNAPSHOT_H_
