#include "src/core/system.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "src/common/byte_codec.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"

namespace dess {

Dess3System::Dess3System(const SystemOptions& options) : options_(options) {
  // One registry for the whole instance: whatever spaces the caller
  // registered (or the canonical four) drive extraction, the engine, and
  // snapshot persistence alike.
  options_.feature_spaces = RegistryOrCanonical(options_.feature_spaces);
  if (options_.extraction.registry == nullptr) {
    options_.extraction.registry = options_.feature_spaces;
  }
  if (options_.search.registry == nullptr) {
    options_.search.registry = options_.feature_spaces;
  }
}

Dess3System::~Dess3System() {
  // Join the compaction thread outside the writer lock: a fold in flight
  // takes ingest_mu_ to publish. `closing_` keeps it from scheduling
  // another and turns a queued one into a no-op.
  std::unique_ptr<ThreadPool> compactor;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    closing_ = true;
    compactor = std::move(compactor_);
  }
  compactor.reset();
}

ThreadPool* Dess3System::EnsureIngestPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  if (ingest_pool_ == nullptr || ingest_pool_->num_threads() != num_threads) {
    ingest_pool_ = std::make_shared<ThreadPool>(num_threads);
  }
  return ingest_pool_.get();
}

void Dess3System::RecordIngestLocked(size_t count) {
  dirty_ = true;  // published snapshot (if any) no longer covers db_
  stat_pending_records_.store(db_.NumShapes() - committed_records_,
                              std::memory_order_relaxed);
  MetricsRegistry* registry = MetricsRegistry::Global();
  registry->AddCounter("system.shapes_ingested", count);
  registry->SetGauge("system.db_shapes",
                     static_cast<double>(db_.NumShapes()));
}

Result<int> Dess3System::InsertLocked(ShapeRecord record,
                                      const IngestOptions& options,
                                      bool defer_sync) {
  const int id = db_.Insert(std::move(record));
  if (wal_ != nullptr &&
      options.durability != WriteAheadLog::Durability::kOff) {
    // The id is assigned at insert, so the append carries the stored
    // record; durability is settled before the ingest returns (and before
    // any commit could publish the record), which is all "write-ahead"
    // must mean here.
    DESS_ASSIGN_OR_RETURN(const ShapeRecord* stored, db_.Get(id));
    const bool sync =
        !defer_sync && options.durability == WriteAheadLog::Durability::kFsync;
    DESS_ASSIGN_OR_RETURN([[maybe_unused]] const uint64_t seq,
                          wal_->AppendRecord(*stored, sync));
    stat_wal_sequence_.store(wal_->last_sequence(),
                             std::memory_order_relaxed);
  }
  return id;
}

Result<int> Dess3System::IngestMesh(const TriMesh& mesh,
                                    const std::string& name, int group,
                                    const IngestOptions& options) {
  // Each ingest is its own trace (pipeline stage spans nest under it).
  ScopedTraceRequest trace;
  DESS_TIMED_SCOPE("system.ingest_shape");
  Result<ShapeSignature> signature{ShapeSignature{}};
  if (options.num_threads == 1) {
    // Extraction is the expensive part and touches no shared state, so it
    // runs outside the writer lock; only the insert itself is serialized.
    signature = ExtractSignature(mesh, options_.extraction);
  } else {
    // Intra-shape parallel extraction borrows the shared ingest pool, so
    // it runs under the writer lock like any other pool user.
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ExtractionOptions extraction = options_.extraction;
    extraction.pool = EnsureIngestPool(options.num_threads);
    signature = ExtractSignature(mesh, extraction);
  }
  DESS_RETURN_NOT_OK(signature.status());
  ShapeRecord record;
  record.name = name;
  record.group = group;
  record.mesh = mesh;
  record.signature = std::move(signature).value();
  std::lock_guard<std::mutex> lock(ingest_mu_);
  DESS_ASSIGN_OR_RETURN(const int id,
                        InsertLocked(std::move(record), options));
  RecordIngestLocked(1);
  return id;
}

Status Dess3System::IngestDataset(const Dataset& dataset,
                                  const IngestOptions& options) {
  const size_t n = dataset.shapes.size();
  if (n == 0) return Status::OK();
  ScopedTraceRequest trace;
  DESS_TIMED_SCOPE("system.ingest_dataset");
  std::lock_guard<std::mutex> lock(ingest_mu_);
  std::vector<Result<ShapeSignature>> signatures(
      n, Result<ShapeSignature>(ShapeSignature{}));
  if (options.num_threads == 1) {
    for (size_t i = 0; i < n; ++i) {
      signatures[i] =
          ExtractSignature(dataset.shapes[i].mesh, options_.extraction);
    }
  } else {
    ThreadPool* pool = EnsureIngestPool(options.num_threads);
    // Two ways to spend the same pool: fan shapes out across workers, or
    // run shapes serially with the voxel/thinning slabs of each shape
    // fanned out. Intra-shape wins when shapes are too few to occupy the
    // workers or grids are large; either path yields bit-identical
    // signatures.
    const bool intra_shape =
        n < static_cast<size_t>(pool->num_threads()) ||
        options_.extraction.voxelization.resolution >=
            options_.intra_shape_resolution_threshold;
    if (intra_shape) {
      ExtractionOptions extraction = options_.extraction;
      extraction.pool = pool;
      for (size_t i = 0; i < n; ++i) {
        signatures[i] = ExtractSignature(dataset.shapes[i].mesh, extraction);
      }
    } else {
      const ExtractionOptions extraction = options_.extraction;
      const TraceContext ctx = CurrentTraceContext();
      ParallelFor(pool, n, [&](size_t i) {
        // Carry the ingest trace onto the pool workers so per-shape
        // pipeline spans attribute to this dataset's trace.
        ScopedTraceContext worker_trace(ctx);
        signatures[i] = ExtractSignature(dataset.shapes[i].mesh, extraction);
      });
    }
  }
  // Serial insertion keeps ids identical across extraction widths and
  // surfaces the first extraction failure deterministically.
  for (size_t i = 0; i < n; ++i) {
    if (!signatures[i].ok()) return signatures[i].status();
  }
  for (size_t i = 0; i < n; ++i) {
    ShapeRecord record;
    record.name = dataset.shapes[i].name;
    record.group = dataset.shapes[i].group;
    record.mesh = dataset.shapes[i].mesh;
    record.signature = std::move(signatures[i]).value();
    // Group commit: every record is appended, one sync settles the batch.
    DESS_ASSIGN_OR_RETURN(
        [[maybe_unused]] const int id,
        InsertLocked(std::move(record), options, /*defer_sync=*/true));
  }
  if (wal_ != nullptr &&
      options.durability == WriteAheadLog::Durability::kFsync) {
    DESS_RETURN_NOT_OK(wal_->Sync());
  }
  RecordIngestLocked(n);
  return Status::OK();
}

Result<int> Dess3System::Ingest(ShapeRecord record,
                                const IngestOptions& options) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  DESS_ASSIGN_OR_RETURN(const int id,
                        InsertLocked(std::move(record), options));
  RecordIngestLocked(1);
  return id;
}

std::vector<SimilaritySpace> Dess3System::PublishedSpacesLocked() const {
  const SearchEngine& engine = base_snapshot_->engine();
  std::vector<SimilaritySpace> spaces;
  spaces.reserve(engine.NumSpaces());
  for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
    spaces.push_back(engine.SpaceAt(ordinal));
  }
  return spaces;
}

void Dess3System::PublishLocked(std::shared_ptr<const SystemSnapshot> serving,
                                std::shared_ptr<const SystemSnapshot> base,
                                size_t calibration_records,
                                size_t base_records,
                                size_t committed_records) {
  const uint64_t epoch = serving->epoch();
  {
    std::lock_guard<std::mutex> publish(snapshot_mu_);
    snapshot_ = std::move(serving);
  }
  base_snapshot_ = std::move(base);
  calibration_records_ = calibration_records;
  base_records_ = base_records;
  committed_records_ = committed_records;
  stat_pending_records_.store(db_.NumShapes() - committed_records_,
                              std::memory_order_relaxed);
  MetricsRegistry::Global()->SetGauge("system.snapshot_epoch",
                                      static_cast<double>(epoch));
}

Result<CommitReceipt> Dess3System::Commit(const CommitOptions& options) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return CommitLocked(options);
}

Result<CommitReceipt> Dess3System::CommitLocked(
    const CommitOptions& options) {
  if (db_.IsEmpty()) {
    return Status::InvalidArgument("commit: database is empty");
  }
  ScopedTraceRequest trace;
  DESS_TIMED_SCOPE("system.commit");
  MetricsRegistry* registry = MetricsRegistry::Global();
  registry->AddCounter("system.commits");
  // Freeze the store (pointer copies only), build the next snapshot off
  // to the side, then publish with one pointer swap. Queries holding the
  // old snapshot are unaffected; the swap never waits for them.
  const uint64_t epoch = next_epoch_;
  const size_t total = db_.NumShapes();
  CommitMode mode = options.mode;
  if (mode == CommitMode::kDelta && base_snapshot_ == nullptr) {
    mode = CommitMode::kFull;  // nothing published to layer over yet
  }
  std::shared_ptr<const SystemSnapshot> next;
  size_t new_calibration = total;
  size_t new_base = total;
  // Lend the shared ingest pool (when one exists) to the index builds so
  // parallel-build backends (HNSW) construct at ingest-pool width. The
  // engine drops the borrowed pointer after BuildIndexes, and backend
  // builds never call ThreadPool::Wait, so a fold building beside this
  // commit may borrow the same pool.
  SearchEngineOptions search = options_.search;
  search.build_pool = ingest_pool_.get();
  if (mode == CommitMode::kDelta) {
    DESS_ASSIGN_OR_RETURN(
        next, SystemSnapshot::LayerDelta(base_snapshot_, db_.SnapshotView(),
                                         epoch));
    new_calibration = calibration_records_;
    new_base = base_records_;
    registry->AddCounter("system.delta_commits");
  } else if (!options.recalibrate && base_snapshot_ != nullptr) {
    DESS_ASSIGN_OR_RETURN(
        next, SystemSnapshot::BuildWithSpaces(
                  db_.SnapshotView(), epoch, search,
                  options_.hierarchy, PublishedSpacesLocked()));
    new_calibration = calibration_records_;
  } else {
    DESS_ASSIGN_OR_RETURN(
        next, SystemSnapshot::Build(db_.SnapshotView(), epoch,
                                    search, options_.hierarchy));
  }
  CommitReceipt receipt;
  receipt.epoch = epoch;
  receipt.mode = mode;
  receipt.delta_records = total - committed_records_;
  if (wal_ != nullptr) {
    // The marker is fsynced before the publish: once a caller holds the
    // receipt, recovery reproduces this exact state.
    WriteAheadLog::CommitMarker marker;
    marker.epoch = epoch;
    marker.mode = static_cast<uint8_t>(mode);
    marker.calibration_records = new_calibration;
    marker.base_records = new_base;
    marker.committed_records = total;
    DESS_ASSIGN_OR_RETURN(receipt.wal_sequence, wal_->AppendCommit(marker));
    stat_wal_sequence_.store(wal_->last_sequence(),
                             std::memory_order_relaxed);
  }
  std::shared_ptr<const SystemSnapshot> base =
      mode == CommitMode::kFull ? next : base_snapshot_;
  PublishLocked(std::move(next), std::move(base), new_calibration, new_base,
                total);
  ++next_epoch_;
  dirty_ = false;
  if (mode == CommitMode::kFull && wal_ != nullptr) {
    // Checkpoint the published snapshot, then truncate the log it
    // supersedes. A crash between the two replays already-checkpointed
    // records on the next open; replay skips duplicates, so the order is
    // safe (the reverse order could lose records).
    SaveOptions save;
    save.overwrite = true;
    DESS_RETURN_NOT_OK(
        base_snapshot_->SaveTo(home_dir_ + "/snapshot", save));
    DESS_RETURN_NOT_OK(wal_->Reset());
    stat_wal_sequence_.store(wal_->last_sequence(),
                             std::memory_order_relaxed);
  }
  if (mode == CommitMode::kDelta) MaybeScheduleCompactionLocked();
  return receipt;
}

void Dess3System::MaybeScheduleCompactionLocked() {
  if (options_.compaction_min_delta_records == 0) return;  // disabled
  if (compaction_scheduled_ || closing_) return;
  const size_t delta = committed_records_ - base_records_;
  if (delta < options_.compaction_min_delta_records) return;
  if (static_cast<double>(delta) <
      options_.compaction_delta_ratio * static_cast<double>(base_records_)) {
    return;
  }
  compaction_scheduled_ = true;
  if (compactor_ == nullptr) compactor_ = std::make_unique<ThreadPool>(1);
  compactor_->Schedule([this] { CompactDelta(); });
}

void Dess3System::CompactDelta() {
  // Fold the committed records into full per-space indexes (and refreshed
  // browsing hierarchies) under the published calibration: bit-identical
  // answers, records only move from the linear-scan side structures into
  // real indexes. No WAL marker is written; the last marker already
  // describes the published state and recovery reproduces it.
  std::shared_ptr<const ShapeDatabase> view;
  std::shared_ptr<const SystemSnapshot> base;
  std::vector<SimilaritySpace> spaces;
  std::shared_ptr<ThreadPool> pool;
  uint64_t epoch = 0;
  size_t folded_records = 0;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (closing_ || committed_records_ == base_records_) {
      compaction_scheduled_ = false;
      return;
    }
    folded_records = committed_records_;
    view = db_.PrefixView(folded_records);
    base = base_snapshot_;
    spaces = PublishedSpacesLocked();
    epoch = PublishedEpoch();
    if (ingest_pool_ == nullptr) EnsureIngestPool(0);
    pool = ingest_pool_;
  }
  // The build, without the writer lock: ingests and commits proceed over
  // the old base meanwhile. The shared pool stays alive for the build even
  // if a writer replaces it.
  Result<std::shared_ptr<const SystemSnapshot>> folded = [&] {
    DESS_TIMED_SCOPE("system.compact_delta");
    SearchEngineOptions search = options_.search;
    search.build_pool = pool.get();
    return SystemSnapshot::BuildWithSpaces(std::move(view), epoch, search,
                                           options_.hierarchy,
                                           std::move(spaces));
  }();
  pool.reset();  // joins a replaced pool here, not under the lock

  std::lock_guard<std::mutex> lock(ingest_mu_);
  compaction_scheduled_ = false;
  const uint64_t published = PublishedEpoch();
  Result<std::shared_ptr<const SystemSnapshot>> serving = folded;
  if (folded.ok() && base_snapshot_ == base && published != epoch) {
    // Delta commits landed during the build: layer what they published
    // over the folded base, in O(delta) like each of them.
    serving = SystemSnapshot::LayerDelta(
        *folded, db_.PrefixView(committed_records_), published);
  }
  if (!serving.ok()) {
    DESS_LOG(Error) << "background compaction failed: "
                    << serving.status().ToString();
    return;  // the next delta commit schedules another fold
  }
  MetricsRegistry* registry = MetricsRegistry::Global();
  if (base_snapshot_ != base) {
    // A full commit landed during the build and covers at least as much.
    registry->AddCounter("system.compactions_superseded");
  } else {
    registry->AddCounter("system.compaction_relayered_records",
                         committed_records_ - folded_records);
    PublishLocked(std::move(serving).value(), std::move(folded).value(),
                  calibration_records_, folded_records, committed_records_);
    registry->AddCounter("system.compactions");
  }
  // The delta may have outgrown the thresholds during the build.
  MaybeScheduleCompactionLocked();
}

bool Dess3System::IsCommitted() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  std::lock_guard<std::mutex> snap(snapshot_mu_);
  return snapshot_ != nullptr && !dirty_;
}

uint64_t Dess3System::PublishedEpoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_ == nullptr ? 0 : snapshot_->epoch();
}

Result<std::shared_ptr<const SystemSnapshot>> Dess3System::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ == nullptr) {
    return Status::FailedPrecondition(
        "no committed snapshot: call Commit() first");
  }
  return snapshot_;
}

Result<QueryResponse> Dess3System::QueryBySignature(
    const ShapeSignature& signature, const QueryRequest& request) const {
  // Start (or join) the request's trace here so the "system.query" span
  // belongs to the trace the snapshot layer will reuse.
  ScopedTraceRequest trace;
  DESS_TIMED_SCOPE("system.query");
  MetricsRegistry::Global()->AddCounter("system.queries");
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        CurrentSnapshot());
  return snapshot->Query(signature, request);
}

Result<QueryResponse> Dess3System::QueryByMesh(
    const TriMesh& mesh, const QueryRequest& request) const {
  ScopedTraceRequest trace;
  // Reject what the snapshot can reject without the probe's geometry (no
  // commit yet, unknown space) first; then extract only the spaces the
  // request reads, and answer on that same snapshot.
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        CurrentSnapshot());
  DESS_ASSIGN_OR_RETURN(const std::vector<int> spaces,
                        snapshot->engine().RequestSpaces(request));
  DESS_ASSIGN_OR_RETURN(
      ExtractionArtifacts art,
      ExtractFeatures(mesh, options_.extraction, spaces, request.deadline));
  DESS_TIMED_SCOPE("system.query");
  MetricsRegistry::Global()->AddCounter("system.queries");
  return snapshot->Query(art.signature, request);
}

Result<QueryResponse> Dess3System::QueryByShapeId(
    int query_id, const QueryRequest& request) const {
  ScopedTraceRequest trace;
  DESS_TIMED_SCOPE("system.query");
  MetricsRegistry::Global()->AddCounter("system.queries");
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        CurrentSnapshot());
  return snapshot->QueryById(query_id, request);
}

QueryExecutor& Dess3System::Executor() {
  if (executor_ == nullptr) {
    executor_ = std::make_unique<QueryExecutor>(
        [this] { return CurrentSnapshot(); }, options_.executor);
  }
  return *executor_;
}

Result<const HierarchyNode*> Dess3System::Hierarchy(FeatureKind kind) const {
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        CurrentSnapshot());
  return &snapshot->Hierarchy(kind);
}

Result<const HierarchyNode*> Dess3System::Hierarchy(
    const std::string& space_id) const {
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        CurrentSnapshot());
  return snapshot->Hierarchy(space_id);
}

Status Dess3System::SaveSnapshot(const std::string& dir,
                                 const SaveOptions& options) const {
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        CurrentSnapshot());
  return snapshot->SaveTo(dir, options);
}

Result<std::unique_ptr<Dess3System>> Dess3System::Open(
    const std::string& dir, const OpenOptions& open_options,
    const SystemOptions& options) {
  DESS_TIMED_SCOPE("system.open");
  // Every directory this creates, the home and any missing ancestor, gets
  // its entry synced in its parent, so nothing inside the home (the
  // write-ahead log included) can vanish with it on a power loss.
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path home = fs::path(dir).lexically_normal();
  if (!home.has_filename()) home = home.parent_path();
  std::vector<fs::path> missing;
  for (fs::path p = home; !p.empty() && !fs::exists(p, ec);
       p = p.parent_path()) {
    missing.push_back(p);
  }
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create home directory '" + dir +
                           "': " + ec.message());
  }
  for (const fs::path& created : missing) {
    DESS_RETURN_NOT_OK(SyncDirectory(
        created.has_parent_path() ? created.parent_path().string() : "."));
  }

  // The checkpoint half: the snapshot the last full commit wrote, opened
  // with the full persistence-layer validation. A home that has never
  // checkpointed simply starts empty.
  std::unique_ptr<Dess3System> system;
  Result<std::unique_ptr<Dess3System>> opened =
      OpenFromSnapshot(dir + "/snapshot", open_options, options);
  if (opened.ok()) {
    system = std::move(opened).value();
  } else if (opened.status().code() == StatusCode::kNotFound) {
    system = std::make_unique<Dess3System>(options);
  } else {
    return opened.status();
  }
  const size_t snap_count = system->db_.NumShapes();

  // The log half: every record ingested since that checkpoint plus the
  // commit markers, validated frame by frame (torn tails truncate, real
  // damage and version skew surface — see WriteAheadLog::Open).
  WriteAheadLog::Replay replay;
  DESS_ASSIGN_OR_RETURN(
      system->wal_,
      WriteAheadLog::Open(dir + "/wal.log", *system->options_.feature_spaces,
                          &replay));
  system->home_dir_ = dir;

  for (ShapeRecord& rec : replay.records) {
    Status st = system->db_.InsertWithId(std::move(rec));
    if (st.ok()) continue;
    if (st.code() == StatusCode::kAlreadyExists) {
      continue;  // checkpointed before the log was truncated — idempotent
    }
    return Status::DataLoss("WAL record conflicts with the snapshot: " +
                            st.message());
  }

  size_t committed = snap_count;
  if (replay.has_marker &&
      replay.marker.committed_records > static_cast<uint64_t>(snap_count)) {
    // The last durable commit reached past the checkpoint: republish the
    // exact state the marker describes. The marker's prefix counts pin the
    // calibration, the main-index coverage, and the served record count,
    // so the rebuilt snapshot answers bit-identically to the one that was
    // serving when the marker was written.
    const WriteAheadLog::CommitMarker& marker = replay.marker;
    committed = static_cast<size_t>(marker.committed_records);
    if (system->db_.NumShapes() < committed) {
      return Status::DataLoss(StrFormat(
          "WAL commit marker covers %llu records but only %zu were "
          "recovered",
          static_cast<unsigned long long>(marker.committed_records),
          system->db_.NumShapes()));
    }
    std::shared_ptr<const SystemSnapshot> base;
    if (marker.base_records == static_cast<uint64_t>(snap_count) &&
        snap_count > 0) {
      // The checkpoint IS the base the marker layered over.
      base = system->snapshot_;
    } else {
      // The base was lost (a crash between marker and checkpoint, or a
      // fold after the checkpoint): rebuild it under the marker's
      // calibration. A reopened system stamps its markers with the
      // checkpoint's record count, whatever prefix the checkpoint's spaces
      // were calibrated over, so that count names the checkpoint's own
      // calibration; any other prefix is recalibrated, which reproduces
      // the lost calibration bitwise.
      std::vector<SimilaritySpace> spaces;
      if (snap_count > 0 &&
          marker.calibration_records == static_cast<uint64_t>(snap_count)) {
        spaces = system->PublishedSpacesLocked();
      } else {
        DESS_ASSIGN_OR_RETURN(
            spaces, SearchEngine::CalibrateSpaces(
                        *system->db_.PrefixView(
                            static_cast<size_t>(marker.calibration_records)),
                        system->options_.search));
      }
      DESS_ASSIGN_OR_RETURN(
          base, SystemSnapshot::BuildWithSpaces(
                    system->db_.PrefixView(
                        static_cast<size_t>(marker.base_records)),
                    marker.epoch, system->options_.search,
                    system->options_.hierarchy, std::move(spaces)));
    }
    std::shared_ptr<const SystemSnapshot> next = base;
    if (marker.committed_records > marker.base_records) {
      DESS_ASSIGN_OR_RETURN(
          next, SystemSnapshot::LayerDelta(
                    base, system->db_.PrefixView(committed), marker.epoch));
    }
    {
      std::lock_guard<std::mutex> publish(system->snapshot_mu_);
      system->snapshot_ = std::move(next);
    }
    system->base_snapshot_ = std::move(base);
    system->base_records_ = static_cast<size_t>(marker.base_records);
    system->calibration_records_ =
        static_cast<size_t>(marker.calibration_records);
    system->next_epoch_ = std::max(system->next_epoch_, marker.epoch + 1);
    MetricsRegistry::Global()->SetGauge("system.snapshot_epoch",
                                        static_cast<double>(marker.epoch));
  }
  system->committed_records_ = committed;
  // Records beyond the last durable commit replay as pending ingests: they
  // are in the store (and still in the log) but not published until the
  // next Commit().
  system->dirty_ = system->db_.NumShapes() > committed;
  system->stat_wal_sequence_.store(system->wal_->last_sequence(),
                                   std::memory_order_relaxed);
  system->stat_pending_records_.store(system->db_.NumShapes() - committed,
                                      std::memory_order_relaxed);
  MetricsRegistry::Global()->SetGauge(
      "system.db_shapes", static_cast<double>(system->db_.NumShapes()));
  return system;
}

}  // namespace dess
