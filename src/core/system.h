#ifndef DESS_CORE_SYSTEM_H_
#define DESS_CORE_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/hierarchy.h"
#include "src/core/query_executor.h"
#include "src/core/snapshot.h"
#include "src/core/wal.h"
#include "src/db/shape_database.h"
#include "src/features/extractors.h"
#include "src/modelgen/dataset.h"
#include "src/search/search_engine.h"

namespace dess {

class ThreadPool;

/// Configuration of a 3DESS instance.
struct SystemOptions {
  /// The feature spaces this instance extracts, indexes, searches and
  /// persists (nullptr means the canonical four). The one knob that wires
  /// a registered space through the whole system: the constructor threads
  /// it into `extraction` and `search`, and OpenFromSnapshot requires the
  /// opened snapshot to serve exactly these spaces.
  std::shared_ptr<const FeatureSpaceRegistry> feature_spaces;
  ExtractionOptions extraction;
  SearchEngineOptions search;
  HierarchyOptions hierarchy;
  QueryExecutorOptions executor;
  /// Voxel resolution at or above which parallel ingest prefers
  /// intra-shape parallelism (slab-parallel voxelize/thin within one shape)
  /// over inter-shape fan-out. Large grids parallelize well internally and
  /// keep peak memory at one working set per pool instead of one per shape.
  int intra_shape_resolution_threshold = 96;
  /// Delta side-index compaction triggers. After a delta commit leaves at
  /// least `compaction_min_delta_records` records in the side-index AND the
  /// side has grown past `compaction_delta_ratio` of the main indexes, a
  /// frozen-calibration fold of the committed records into full per-space
  /// indexes is scheduled on the system's compaction thread. The fold
  /// builds without the writer lock, so ingest and commit carry on
  /// meanwhile, and publishes under a short hold of it: the same epoch
  /// with bit-identical answers, with any records delta-committed during
  /// the build layered over the folded indexes. Set
  /// `compaction_min_delta_records` to 0 to disable background compaction.
  size_t compaction_min_delta_records = 512;
  double compaction_delta_ratio = 0.10;
};

/// How ingest calls behave: extraction fan-out and write-ahead-log
/// durability travel together so each call site states its contract in
/// one place.
struct IngestOptions {
  /// Extraction worker threads: 1 runs sequentially on the caller, 0 uses
  /// hardware concurrency, n > 1 uses n pool workers. Whatever the width,
  /// insertion order and assigned ids match the sequential path exactly.
  int num_threads = 1;
  /// Write-ahead-log durability for the ingested records. Meaningful only
  /// on a system with a durable home (Dess3System::Open); others carry no
  /// WAL and ignore this. Dataset ingests group-commit: whatever the mode,
  /// at most one fsync per call, not one per record.
  WriteAheadLog::Durability durability = WriteAheadLog::Durability::kAsync;
};

/// What Commit() builds before publishing.
enum class CommitMode : uint8_t {
  /// Rebuild the per-space indexes and browsing hierarchies over every
  /// record. O(corpus), and the only mode that folds an existing delta
  /// side-index away.
  kFull = 0,
  /// Index only the records ingested since the last publish as a small
  /// side-index layered over the unchanged main indexes. O(delta), and the
  /// merged query results are bit-identical to a frozen-calibration full
  /// rebuild; browsing hierarchies lag until the next full commit or
  /// background compaction.
  kDelta = 1,
};

struct CommitOptions {
  CommitMode mode = CommitMode::kFull;
  /// Recalibrate the similarity spaces over the full corpus (kFull only;
  /// a delta commit always reuses the published calibration). When false,
  /// the rebuild keeps the published calibration so its answers stay
  /// bit-identical to the layered snapshot it replaces — the compaction
  /// and recovery path.
  bool recalibrate = true;
};

/// What a Commit() published. `epoch` names the snapshot (the value query
/// responses carry); `wal_sequence` is the fsynced commit marker's log
/// sequence (0 on a system without a durable home); `delta_records` is how
/// many records this publish covers that the previous one did not.
struct CommitReceipt {
  uint64_t epoch = 0;
  uint64_t wal_sequence = 0;
  uint64_t delta_records = 0;
  CommitMode mode = CommitMode::kFull;
};

/// The 3DESS facade: the paper's three-tier system (Figure 1) in one
/// object. INTERFACE-layer operations (query by example, browsing,
/// feedback) call into SERVER-layer modules (feature extraction, view
/// generation, clustering) backed by the DATABASE layer (record store +
/// R-tree indexes).
///
/// Workflow: Ingest* shapes, then Commit() to publish a SystemSnapshot
/// (frozen record-store view + indexes + browsing hierarchies), then
/// query. Queries before the first Commit() return FailedPrecondition.
///
/// Concurrency model (snapshot isolation):
///  - Writers (Ingest*, Commit) are serialized by an internal mutex;
///    concurrent ingest calls are safe but run one at a time. Background
///    compaction takes that mutex only to snapshot its inputs and to
///    publish; its build runs beside the writers.
///  - Commit() builds the next snapshot while the current one keeps
///    serving, then publishes it with one pointer swap. It never waits for
///    in-flight queries.
///  - Readers acquire the published snapshot (CurrentSnapshot or any
///    query method) and run lock-free against it; a query never observes
///    a half-built index. Ingest after a Commit() marks the system dirty
///    but the last published snapshot keeps serving its epoch until the
///    next Commit().
class Dess3System {
 public:
  explicit Dess3System(const SystemOptions& options = {});
  ~Dess3System();

  /// Runs the feature-extraction pipeline on a mesh and stores it.
  /// Returns the assigned database id. `options.num_threads` widens the
  /// intra-shape extraction stages; `options.durability` governs the WAL
  /// append on a durable system.
  Result<int> IngestMesh(const TriMesh& mesh, const std::string& name,
                         int group = kUngrouped,
                         const IngestOptions& options = {});

  /// Ingests every shape of a generated dataset, preserving group labels.
  /// `options.num_threads` selects sequential (1), hardware-concurrency
  /// (0) or n-worker extraction; insertion order and assigned ids are
  /// identical across all widths. On a durable system every record is
  /// WAL-appended per `options.durability` with one group fsync per call.
  Status IngestDataset(const Dataset& dataset,
                       const IngestOptions& options = {});

  /// Ingests a pre-extracted record (e.g. loaded from disk), WAL-appending
  /// it per `options.durability` on a durable system.
  Result<int> Ingest(ShapeRecord record, const IngestOptions& options);

  /// Builds and atomically publishes a new SystemSnapshot over the current
  /// database contents and returns its receipt: the published epoch (the
  /// name callers and the persistence layer use for what they just
  /// committed or saved), the fsynced WAL marker sequence, and how many
  /// records the publish newly covers. CommitOptions::mode selects a full
  /// rebuild or an O(delta) side-index publish (see CommitMode). In-flight
  /// queries keep their old snapshot; new queries see the new epoch.
  ///
  /// On a durable system (Open): the commit marker is fsynced to the WAL
  /// before the publish, and a full commit then checkpoints the snapshot
  /// to the home directory and truncates the WAL.
  Result<CommitReceipt> Commit(const CommitOptions& options = {});

  /// True when a snapshot is published and no ingest has happened since.
  bool IsCommitted() const;

  /// Epoch of the currently published snapshot (0 before the first
  /// Commit()).
  uint64_t PublishedEpoch() const;

  /// Sequence of the last WAL entry this system wrote or replayed (0 on a
  /// system without a durable home). Lock-free; safe from the serving
  /// layer's stats path.
  uint64_t WalSequence() const {
    return stat_wal_sequence_.load(std::memory_order_relaxed);
  }

  /// Records ingested but not yet covered by a published snapshot.
  /// Lock-free; safe from the serving layer's stats path.
  uint64_t PendingRecords() const {
    return stat_pending_records_.load(std::memory_order_relaxed);
  }

  /// The currently published snapshot; FailedPrecondition before the first
  /// Commit(). The returned snapshot stays valid (and immutable) for as
  /// long as the caller holds it, regardless of later ingests or commits.
  Result<std::shared_ptr<const SystemSnapshot>> CurrentSnapshot() const;

  /// The record store. NOT synchronized with concurrent ingest: call only
  /// from the writer side, or use CurrentSnapshot()->db() for a stable
  /// view.
  const ShapeDatabase& db() const { return db_; }
  const SystemOptions& options() const { return options_; }

  /// Query by example with an external mesh (a "CAD file" a user submits):
  /// extracts the vectors of the spaces `request` searches — running only
  /// the pipeline stages they need — then executes `request` against the
  /// current snapshot. The response carries the answering snapshot's
  /// epoch. A request the snapshot rejects (no commit yet, unknown space)
  /// fails before extraction; `request.deadline` is checked between the
  /// extraction stages too.
  Result<QueryResponse> QueryByMesh(const TriMesh& mesh,
                                    const QueryRequest& request) const;

  /// Executes `request` against the current snapshot with a pre-extracted
  /// signature (no geometry pipeline).
  Result<QueryResponse> QueryBySignature(const ShapeSignature& signature,
                                         const QueryRequest& request) const;

  /// Executes `request` with a database shape as the query (excluded from
  /// its own results).
  Result<QueryResponse> QueryByShapeId(int query_id,
                                       const QueryRequest& request) const;

  /// The asynchronous query executor, wired to this system's published
  /// snapshots (options_.executor controls pool/queue sizing). Created on
  /// first use; must not be called for the first time from multiple
  /// threads concurrently (subsequent use is thread-safe).
  QueryExecutor& Executor();

  /// Browsing hierarchy for one feature kind from the current snapshot
  /// (the paper builds "the classification map for each feature vector").
  /// The pointer stays valid while the caller could also have obtained it
  /// via CurrentSnapshot(); prefer CurrentSnapshot()->Hierarchy(kind) in
  /// concurrent code, which ties the lifetime to the acquired snapshot.
  Result<const HierarchyNode*> Hierarchy(FeatureKind kind) const;

  /// Same, addressed by registered feature-space id; InvalidArgument for
  /// an id the system's registry does not serve.
  Result<const HierarchyNode*> Hierarchy(const std::string& space_id) const;

  /// Persists the currently published snapshot as a versioned on-disk
  /// directory (record store, feature sets, similarity spaces,
  /// hierarchies, checksummed manifest — see persistence.h).
  /// FailedPrecondition before the first Commit(); the saved epoch is the
  /// published one, so a caller can pair this with the epoch returned by
  /// Commit() to name exactly what was saved.
  Status SaveSnapshot(const std::string& dir,
                      const SaveOptions& options = {}) const;

  /// Opens a snapshot directory written by SaveSnapshot /
  /// SystemSnapshot::SaveTo and publishes it without re-ingesting or
  /// recalibrating: the reopened system answers queries identically to the
  /// system that saved it, at the saved epoch, and later Ingest*/Commit()
  /// continue from there. Every space's index is built through its
  /// configured backend from the loaded records, as Commit() builds it.
  /// Finishes a publish that a crash interrupted (a complete `<dir>.tmp`
  /// and no `<dir>/MANIFEST`) by renaming the staged snapshot into place.
  /// Failure taxonomy: DataLoss for checksum mismatches or
  /// truncated/missing sections, FailedPrecondition for format-version
  /// skew, NotFound when `dir` holds no snapshot.
  static Result<std::unique_ptr<Dess3System>> OpenFromSnapshot(
      const std::string& dir, const OpenOptions& open_options = {},
      const SystemOptions& options = {});

  /// Opens (creating if needed) a durable home directory — the incremental
  /// counterpart to OpenFromSnapshot. `dir` holds the last checkpointed
  /// snapshot (`<dir>/snapshot`, written by each full commit) and the
  /// write-ahead log (`<dir>/wal.log`, carrying every record ingested
  /// since plus the commit markers). Recovery replays the WAL tail over
  /// the snapshot and republishes the state of the last durable commit
  /// marker bit-identically — including a layered delta snapshot if that
  /// is what the marker describes; records beyond the marker replay as
  /// pending (uncommitted) ingests.
  ///
  /// Failure taxonomy matches OpenFromSnapshot plus the WAL tiers: a torn
  /// WAL tail from a crashed append is truncated and recovery succeeds;
  /// mid-log damage is DataLoss; a verifying frame with an unknown format
  /// version or entry type is FailedPrecondition.
  static Result<std::unique_ptr<Dess3System>> Open(
      const std::string& dir, const OpenOptions& open_options = {},
      const SystemOptions& options = {});

 private:
  /// Returns the shared ingest pool, (re)creating it only when the
  /// requested worker count changes (0 = hardware concurrency). The pool
  /// is long-lived so repeated ingests don't pay thread startup cost.
  /// Caller must hold ingest_mu_.
  ThreadPool* EnsureIngestPool(int num_threads);

  /// Post-insert bookkeeping (dirty flag + gauges). Caller must hold
  /// ingest_mu_.
  void RecordIngestLocked(size_t count);

  /// Inserts one record and WAL-appends it per `options.durability`
  /// (without syncing when `defer_sync` — dataset group commit). Caller
  /// must hold ingest_mu_ and call RecordIngestLocked afterwards.
  Result<int> InsertLocked(ShapeRecord record, const IngestOptions& options,
                           bool defer_sync = false);

  /// Commit body; caller must hold ingest_mu_.
  Result<CommitReceipt> CommitLocked(const CommitOptions& options);

  /// Publishes `serving` (snapshot_mu_ swap) over the full snapshot
  /// `base` (`serving` itself unless it is layered) and refreshes the
  /// bookkeeping counters/gauges. Caller must hold ingest_mu_.
  void PublishLocked(std::shared_ptr<const SystemSnapshot> serving,
                     std::shared_ptr<const SystemSnapshot> base,
                     size_t calibration_records, size_t base_records,
                     size_t committed_records);

  /// Schedules a background frozen-calibration fold of the committed
  /// records on the compaction thread when the delta side-index has
  /// outgrown the thresholds in SystemOptions. Caller must hold ingest_mu_.
  void MaybeScheduleCompactionLocked();

  /// The background fold: takes the committed prefix, the base snapshot,
  /// its calibration and the published epoch under ingest_mu_, builds the
  /// folded snapshot without the lock, and publishes it under the lock
  /// again. A full commit that landed during the build supersedes the
  /// fold (its result is dropped); delta commits that landed are layered
  /// over the folded base at the epoch they published.
  void CompactDelta();

  /// Copies the published calibration out of `base_snapshot_`'s engine.
  /// Caller must hold ingest_mu_ and base_snapshot_ must be set.
  std::vector<SimilaritySpace> PublishedSpacesLocked() const;

  SystemOptions options_;

  /// Serializes writers: ingest and commit. Queries never take it.
  mutable std::mutex ingest_mu_;
  ShapeDatabase db_;            // guarded by ingest_mu_
  bool dirty_ = false;          // ingest since last publish; ingest_mu_
  uint64_t next_epoch_ = 1;     // guarded by ingest_mu_
  /// Guarded by ingest_mu_. Shared so a fold's index build keeps the pool
  /// it borrowed alive when a writer replaces it meanwhile.
  std::shared_ptr<ThreadPool> ingest_pool_;

  /// Durable home (Open); both empty/null on an in-memory system. The WAL
  /// is guarded by ingest_mu_ like every other writer-side member.
  std::string home_dir_;
  std::unique_ptr<WriteAheadLog> wal_;

  /// Incremental-commit bookkeeping, guarded by ingest_mu_.
  /// `base_snapshot_` is the last *full* (non-layered) snapshot — what a
  /// delta commit layers over and what holds the published calibration.
  std::shared_ptr<const SystemSnapshot> base_snapshot_;
  size_t committed_records_ = 0;    // records the published snapshot serves
  size_t base_records_ = 0;         // records the main indexes cover
  size_t calibration_records_ = 0;  // records the spaces calibrated over
  bool compaction_scheduled_ = false;  // set from schedule to publish
  /// Set by the destructor: no fold is scheduled after it, and a queued
  /// one returns at once. Guarded by ingest_mu_.
  bool closing_ = false;
  /// One worker that runs the background folds. Created by the first
  /// schedule (under ingest_mu_) and joined by the destructor outside it,
  /// since a fold takes ingest_mu_ to publish.
  std::unique_ptr<ThreadPool> compactor_;

  /// Guards only the published-snapshot pointer swap; held for a pointer
  /// copy on the read side, never across query execution.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SystemSnapshot> snapshot_;

  /// Lock-free mirrors for the serving layer's stats path.
  std::atomic<uint64_t> stat_wal_sequence_{0};
  std::atomic<uint64_t> stat_pending_records_{0};

  std::unique_ptr<QueryExecutor> executor_;
};

}  // namespace dess

#endif  // DESS_CORE_SYSTEM_H_
