// The on-disk snapshot format (see persistence.h for the directory layout
// and failure taxonomy). The record sections are the record codec's
// (src/db/serialization.h); the MANIFEST, spaces and hierarchy sections
// are defined here. SystemSnapshot::SaveTo writes them,
// Dess3System::OpenFromSnapshot reads them back, and the MANIFEST ties the
// two together with a format version, the answering epoch, and a CRC-32C
// per section.

#include "src/core/persistence.h"

#include <filesystem>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/byte_codec.h"
#include "src/common/crc32c.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/core/snapshot.h"
#include "src/core/system.h"
#include "src/db/serialization.h"
#include "src/search/search_engine.h"

namespace dess {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kManifestMagic = 0x504E5344;  // "DSNP"
constexpr uint32_t kFlagIncludeMeshes = 1u << 0;
constexpr uint32_t kFlagStandardize = 1u << 1;

/// Parse-time sanity bounds: a valid manifest has up to 3 sections plus up
/// to 2 per feature space (hierarchy, optional graph) and a valid
/// hierarchy is bounded by HierarchyOptions::max_depth / branch_factor;
/// anything past these limits is a corrupt length prefix, not real data.
constexpr uint32_t kMaxManifestSections = 128;
constexpr uint32_t kMaxManifestSpaces = 30;
constexpr int kMaxHierarchyDepth = 64;
constexpr uint32_t kMaxHierarchyChildren = 4096;

/// Siblings of a snapshot directory `<dir>` that SaveTo uses to publish:
/// the new snapshot is staged in `<dir>.tmp`, and the one it replaces is
/// moved to `<dir>.old` until the new one is in place.
constexpr char kStagingSuffix[] = ".tmp";
constexpr char kRetiredSuffix[] = ".old";

/// The snapshot directory `dir` names, without a trailing separator, so
/// its siblings land beside it rather than inside it.
fs::path SnapshotRoot(const std::string& dir) {
  const fs::path root(dir);
  return root.has_filename() ? root : root.parent_path();
}

fs::path Sibling(const fs::path& dir, const char* suffix) {
  fs::path sibling = dir;
  sibling += suffix;
  return sibling;
}

/// One MANIFEST entry: a section file with its expected size and CRC-32C.
struct ManifestSection {
  std::string file;
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// One feature-space entry of the MANIFEST: which space, at which
/// dimension, the snapshot's i-th sections describe, and the id of the
/// index backend that served it (the writer of its graph section, if any).
struct ManifestSpace {
  std::string id;
  uint32_t dim = 0;
  std::string backend;
};

struct Manifest {
  uint64_t epoch = 0;
  uint32_t flags = 0;
  uint64_t num_shapes = 0;
  std::vector<ManifestSpace> spaces;
  std::vector<ManifestSection> sections;
};

const ManifestSection* FindSection(const Manifest& manifest,
                                   const std::string& file) {
  for (const ManifestSection& s : manifest.sections) {
    if (s.file == file) return &s;
  }
  return nullptr;
}

/// The MANIFEST: header, section table, then a trailing CRC-32C of every
/// preceding byte, so a reader can reject any torn or bit-flipped manifest
/// before trusting a single field.
std::string EncodeManifest(const Manifest& manifest) {
  ByteWriter w;
  w.WriteU32(kManifestMagic);
  w.WriteU32(kSnapshotFormatVersion);
  w.WriteU64(manifest.epoch);
  w.WriteU32(manifest.flags);
  w.WriteU64(manifest.num_shapes);
  // The feature-space table: which spaces, in which registry order, this
  // snapshot's sections describe.
  w.WriteU32(static_cast<uint32_t>(manifest.spaces.size()));
  for (const ManifestSpace& s : manifest.spaces) {
    w.WriteString(s.id);
    w.WriteU32(s.dim);
    w.WriteString(s.backend);
  }
  w.WriteU32(static_cast<uint32_t>(manifest.sections.size()));
  for (const ManifestSection& s : manifest.sections) {
    w.WriteString(s.file);
    w.WriteU64(s.size);
    w.WriteU32(s.crc);
  }
  w.WriteU32(Crc32c(w.bytes().data(), w.bytes().size()));
  return w.Take();
}

/// Reads and validates a MANIFEST. Taxonomy, in check order: NotFound when
/// the file does not exist, DataLoss when its self-CRC (or any field) is
/// bad, FailedPrecondition when the CRC is valid but the format version is
/// not ours — the self-CRC runs first so a bit flip in the version field
/// reads as corruption, not as version skew. The fields are parsed from
/// the very bytes the CRC verified, never from a second read of the file.
Result<Manifest> ReadManifest(const std::string& path) {
  Result<std::string> read = ReadFileBytes(path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no snapshot manifest at '" + path + "'");
    }
    return read.status();
  }
  const std::string& buf = read.value();
  // Header (32 bytes) + trailing self-CRC is the smallest valid manifest.
  if (buf.size() < 36) {
    return Status::DataLoss("snapshot manifest truncated: " + path);
  }
  const std::string_view body(buf.data(), buf.size() - sizeof(uint32_t));
  uint32_t stored_crc = 0;
  ByteReader(std::string_view(buf).substr(body.size())).ReadU32(&stored_crc);
  if (Crc32c(body.data(), body.size()) != stored_crc) {
    return Status::DataLoss("snapshot manifest checksum mismatch: " + path);
  }

  ByteReader r(body);
  Manifest manifest;
  uint32_t magic = 0;
  if (!r.ReadU32(&magic) || magic != kManifestMagic) {
    return Status::DataLoss("bad snapshot manifest magic: " + path);
  }
  uint32_t version = 0;
  if (!r.ReadU32(&version)) {
    return Status::DataLoss("snapshot manifest truncated: " + path);
  }
  if (version != kSnapshotFormatVersion) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot format version %u, this build reads version %u: %s",
        version, kSnapshotFormatVersion, path.c_str()));
  }
  if (!r.ReadU64(&manifest.epoch) || !r.ReadU32(&manifest.flags) ||
      !r.ReadU64(&manifest.num_shapes)) {
    return Status::DataLoss("unparseable snapshot manifest: " + path);
  }
  uint32_t num_spaces = 0;
  if (!r.ReadU32(&num_spaces) || num_spaces < kNumFeatureKinds ||
      num_spaces > kMaxManifestSpaces) {
    return Status::DataLoss("unparseable snapshot manifest: " + path);
  }
  manifest.spaces.resize(num_spaces);
  for (ManifestSpace& s : manifest.spaces) {
    if (!r.ReadString(&s.id) || !r.ReadU32(&s.dim) ||
        !r.ReadString(&s.backend) || s.id.empty() || s.dim == 0) {
      return Status::DataLoss("unparseable snapshot manifest: " + path);
    }
  }
  uint32_t num_sections = 0;
  if (!r.ReadU32(&num_sections) || num_sections > kMaxManifestSections) {
    return Status::DataLoss("unparseable snapshot manifest: " + path);
  }
  manifest.sections.resize(num_sections);
  for (ManifestSection& s : manifest.sections) {
    if (!r.ReadString(&s.file) || !r.ReadU64(&s.size) || !r.ReadU32(&s.crc) ||
        s.file.empty()) {
      return Status::DataLoss("unparseable snapshot manifest: " + path);
    }
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot manifest: " + path);
  }
  return manifest;
}

/// spaces.bin: every calibrated SimilaritySpace, tagged with its registry
/// ordinal. Persisting stats, weights and d_max — not recomputing them —
/// is what makes a reopened system answer bit-identically: every distance
/// and similarity a query produces is a function of the raw features plus
/// exactly these numbers.
std::string EncodeSpaces(const SearchEngine& engine) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(engine.NumSpaces()));
  for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
    const SimilaritySpace& space = engine.SpaceAt(ordinal);
    w.WriteU32(static_cast<uint32_t>(ordinal));
    w.WriteF64Vector(space.stats.mean);
    w.WriteF64Vector(space.stats.stddev);
    w.WriteF64Vector(space.weights);
    w.WriteF64(space.dmax);
  }
  return w.Take();
}

Result<std::vector<SimilaritySpace>> DecodeSpaces(
    std::string_view bytes, const FeatureSpaceRegistry& registry,
    const std::string& path) {
  ByteReader r(bytes);
  uint32_t n = 0;
  if (!r.ReadU32(&n) || n != static_cast<uint32_t>(registry.size())) {
    return Status::DataLoss("bad space count in snapshot spaces: " + path);
  }
  std::vector<SimilaritySpace> spaces(n);
  for (uint32_t i = 0; i < n; ++i) {
    const size_t dim = static_cast<size_t>(registry.dim(i));
    uint32_t ordinal = 0;
    SimilaritySpace& space = spaces[i];
    if (!r.ReadU32(&ordinal) || ordinal != i ||
        !r.ReadF64Vector(&space.stats.mean) ||
        !r.ReadF64Vector(&space.stats.stddev) ||
        !r.ReadF64Vector(&space.weights) || !r.ReadF64(&space.dmax) ||
        space.stats.mean.size() != dim || space.stats.stddev.size() != dim ||
        space.weights.size() != dim) {
      return Status::DataLoss("unparseable snapshot spaces: " + path);
    }
    space.kind = static_cast<FeatureKind>(i);
    space.id = registry.id(i);
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot spaces: " + path);
  }
  return spaces;
}

/// hierarchy_<id>.bin: the browsing tree, preorder-recursive.
void EncodeHierarchyNode(const HierarchyNode& node, ByteWriter* w) {
  w->WriteI32Vector(node.members);
  w->WriteF64Vector(node.centroid);
  w->WriteU32(static_cast<uint32_t>(node.children.size()));
  for (const auto& child : node.children) EncodeHierarchyNode(*child, w);
}

std::string EncodeHierarchy(const HierarchyNode& root) {
  ByteWriter w;
  EncodeHierarchyNode(root, &w);
  return w.Take();
}

Result<std::unique_ptr<HierarchyNode>> DecodeHierarchyNode(
    ByteReader* r, const std::string& path, int depth) {
  if (depth > kMaxHierarchyDepth) {
    return Status::DataLoss("snapshot hierarchy too deep: " + path);
  }
  auto node = std::make_unique<HierarchyNode>();
  uint32_t num_children = 0;
  if (!r->ReadI32Vector(&node->members) ||
      !r->ReadF64Vector(&node->centroid) || !r->ReadU32(&num_children) ||
      num_children > kMaxHierarchyChildren) {
    return Status::DataLoss("unparseable snapshot hierarchy: " + path);
  }
  node->children.reserve(num_children);
  for (uint32_t i = 0; i < num_children; ++i) {
    DESS_ASSIGN_OR_RETURN(std::unique_ptr<HierarchyNode> child,
                          DecodeHierarchyNode(r, path, depth + 1));
    node->children.push_back(std::move(child));
  }
  return node;
}

Result<std::unique_ptr<HierarchyNode>> DecodeHierarchy(
    std::string_view bytes, const std::string& path) {
  ByteReader r(bytes);
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<HierarchyNode> root,
                        DecodeHierarchyNode(&r, path, 1));
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes in snapshot hierarchy: " + path);
  }
  return root;
}

}  // namespace

Status SystemSnapshot::SaveTo(const std::string& dir,
                              const SaveOptions& options) const {
  DESS_TIMED_SCOPE("snapshot.save");
  const FeatureSpaceRegistry& registry = engine_->registry();
  const fs::path target = SnapshotRoot(dir);
  std::error_code ec;
  const bool target_exists = fs::exists(target, ec);
  if (target_exists) {
    if (!fs::is_directory(target, ec)) {
      return Status::IOError("snapshot target exists and is not a directory: " +
                             dir);
    }
    const bool has_manifest =
        fs::exists(target / kSnapshotManifestFile, ec);
    if (has_manifest && !options.overwrite) {
      return Status::AlreadyExists("snapshot already exists at '" + dir +
                                   "' (set SaveOptions::overwrite)");
    }
    if (!has_manifest && !fs::is_empty(target, ec)) {
      return Status::InvalidArgument(
          "refusing to replace '" + dir +
          "': directory exists but holds no snapshot");
    }
  }

  // Stage the whole directory next to the target, then rename into place:
  // a crash mid-save leaves the (ignorable) staging directory behind, never
  // a half-written snapshot at the target path.
  const fs::path staging = Sibling(target, kStagingSuffix);
  const fs::path retired = Sibling(target, kRetiredSuffix);
  fs::remove_all(staging, ec);
  ec.clear();
  fs::create_directories(staging, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot staging directory '" +
                           staging.string() + "': " + ec.message());
  }

  Manifest manifest;
  manifest.epoch = epoch_;
  manifest.flags =
      (options.include_meshes ? kFlagIncludeMeshes : 0u) |
      (engine_->options().standardize ? kFlagStandardize : 0u);
  manifest.num_shapes = db_->NumShapes();
  manifest.spaces.reserve(registry.size());
  for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
    manifest.spaces.push_back({registry.id(ordinal),
                               static_cast<uint32_t>(registry.dim(ordinal)),
                               engine_->BackendIdAt(ordinal)});
  }

  // Each section is encoded in memory, checksummed from that buffer and
  // written (and fsynced) once; nothing is read back.
  auto write_section = [&](const std::string& file,
                           std::string_view bytes) -> Status {
    DESS_RETURN_NOT_OK(WriteFileSynced((staging / file).string(), bytes));
    manifest.sections.push_back(
        {file, bytes.size(), Crc32c(bytes.data(), bytes.size())});
    return Status::OK();
  };

  DESS_RETURN_NOT_OK(
      write_section(kSnapshotRecordsFile, EncodeRecordsSection(*db_)));
  if (options.include_meshes) {
    DESS_RETURN_NOT_OK(
        write_section(kSnapshotMeshesFile, EncodeMeshesSection(*db_)));
  }
  DESS_RETURN_NOT_OK(
      write_section(kSnapshotSpacesFile, EncodeSpaces(*engine_)));
  for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
    DESS_RETURN_NOT_OK(
        write_section(SnapshotHierarchyFile(registry.id(ordinal)),
                      EncodeHierarchy(Hierarchy(ordinal))));
  }

  // Optional graph sections: the bytes the engine hands back for spaces
  // served by an approximate backend (SearchEngine::SerializedIndexAt), so
  // a reopen can skip the rebuild. The reader falls back to a rebuild from
  // the records whenever the section is absent.
  for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
    const std::optional<std::string> bytes =
        engine_->SerializedIndexAt(ordinal);
    if (!bytes.has_value()) continue;
    DESS_RETURN_NOT_OK(
        write_section(SnapshotGraphFile(registry.id(ordinal)), *bytes));
  }

  // The manifest is written last inside the staging directory, so even the
  // staging area never looks complete before it is. Syncing the directory
  // makes its entries durable before any rename publishes them.
  DESS_RETURN_NOT_OK(WriteFileSynced(
      (staging / kSnapshotManifestFile).string(), EncodeManifest(manifest)));
  DESS_RETURN_NOT_OK(SyncDirectory(staging.string()));

  // The live snapshot is moved aside, never removed, until the staged one
  // is in place. A crash between the two renames leaves no snapshot at the
  // target but a complete staging directory, which OpenFromSnapshot
  // renames into place.
  if (target_exists) {
    fs::remove_all(retired, ec);  // left by a crash after an earlier publish
    fs::rename(target, retired, ec);
    if (ec) {
      return Status::IOError("cannot replace snapshot at '" + dir +
                             "': " + ec.message());
    }
  }
  fs::rename(staging, target, ec);
  if (ec) {
    return Status::IOError("cannot publish snapshot to '" + dir +
                           "': " + ec.message());
  }
  fs::remove_all(retired, ec);
  // The renames are durable before the caller relies on the snapshot (a
  // checkpointing Commit truncates its write-ahead log next).
  DESS_RETURN_NOT_OK(SyncDirectory(
      target.has_parent_path() ? target.parent_path().string() : "."));
  MetricsRegistry::Global()->AddCounter("persist.snapshots_saved");
  return Status::OK();
}

Result<std::unique_ptr<Dess3System>> Dess3System::OpenFromSnapshot(
    const std::string& dir, const OpenOptions& open_options,
    const SystemOptions& options) {
  DESS_TIMED_SCOPE("snapshot.open");
  const fs::path root = SnapshotRoot(dir);
  std::error_code ec;
  // Finish a publish that a crash interrupted (see SaveTo). The staged
  // snapshot is complete once its MANIFEST exists. It is renamed into
  // place, not read where it lies, because the next SaveTo starts by
  // clearing the staging directory.
  const fs::path staging = Sibling(root, kStagingSuffix);
  if (!fs::exists(root / kSnapshotManifestFile, ec) &&
      fs::exists(staging / kSnapshotManifestFile, ec)) {
    fs::rename(staging, root, ec);
    if (ec) {
      return Status::IOError("cannot finish the interrupted publish of '" +
                             dir + "': " + ec.message());
    }
    DESS_RETURN_NOT_OK(SyncDirectory(
        root.has_parent_path() ? root.parent_path().string() : "."));
  }
  if (!fs::exists(root, ec)) {
    return Status::NotFound("no snapshot directory at '" + dir + "'");
  }
  DESS_ASSIGN_OR_RETURN(
      Manifest manifest,
      ReadManifest((root / kSnapshotManifestFile).string()));

  // The snapshot's feature-space table must match this process's registry
  // exactly (same spaces, same order, same dimensions): the persisted
  // sections were written in registry order and carry no meaning under a
  // different one. A mismatch is a configuration problem — the snapshot is
  // intact, this process just is not set up to serve it.
  const std::shared_ptr<const FeatureSpaceRegistry> registry =
      RegistryOrCanonical(options.feature_spaces);
  if (static_cast<int>(manifest.spaces.size()) != registry->size()) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot serves %zu feature spaces, this process registers %d: %s",
        manifest.spaces.size(), registry->size(), dir.c_str()));
  }
  for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
    const ManifestSpace& s = manifest.spaces[ordinal];
    if (s.id != registry->id(ordinal) ||
        s.dim != static_cast<uint32_t>(registry->dim(ordinal))) {
      return Status::FailedPrecondition(StrFormat(
          "snapshot feature space %d is '%s' (dim %u), this process "
          "registers '%s' (dim %d): %s",
          ordinal, s.id.c_str(), s.dim, registry->id(ordinal).c_str(),
          registry->dim(ordinal), dir.c_str()));
    }
  }

  // Each section is read once; with verify_checksums the size and CRC are
  // checked on that buffer, and the decoder parses the very same bytes. A
  // missing, truncated or bit-flipped section fails the whole open, never
  // a partial publish.
  auto section_path = [&](const std::string& file) {
    return (root / file).string();
  };
  auto read_section = [&](const std::string& file) -> Result<std::string> {
    const ManifestSection* section = FindSection(manifest, file);
    if (section == nullptr) {
      return Status::DataLoss("snapshot manifest lists no section '" + file +
                              "' in '" + dir + "'");
    }
    const std::string path = section_path(file);
    Result<std::string> bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      return Status::DataLoss("snapshot section unreadable: " + path + " (" +
                              bytes.status().message() + ")");
    }
    if (open_options.verify_checksums &&
        (bytes->size() != section->size ||
         Crc32c(bytes->data(), bytes->size()) != section->crc)) {
      return Status::DataLoss("snapshot section checksum mismatch: " + path);
    }
    return bytes;
  };

  std::string bytes;
  DESS_ASSIGN_OR_RETURN(bytes, read_section(kSnapshotRecordsFile));
  DESS_ASSIGN_OR_RETURN(
      std::vector<ShapeRecord> records,
      DecodeRecordsSection(bytes, *registry,
                           section_path(kSnapshotRecordsFile)));
  if (records.size() != manifest.num_shapes) {
    return Status::DataLoss(
        StrFormat("snapshot records hold %zu shapes, manifest says %llu: %s",
                  records.size(),
                  static_cast<unsigned long long>(manifest.num_shapes),
                  dir.c_str()));
  }
  if ((manifest.flags & kFlagIncludeMeshes) != 0) {
    DESS_ASSIGN_OR_RETURN(bytes, read_section(kSnapshotMeshesFile));
    DESS_RETURN_NOT_OK(DecodeMeshesSection(
        bytes, section_path(kSnapshotMeshesFile), &records));
  }

  auto system = std::make_unique<Dess3System>(options);
  for (ShapeRecord& rec : records) {
    Status st = system->db_.InsertWithId(std::move(rec));
    if (!st.ok()) {
      return Status::DataLoss("snapshot records invalid: " + st.message());
    }
  }
  std::shared_ptr<const ShapeDatabase> view = system->db_.SnapshotView();

  DESS_ASSIGN_OR_RETURN(bytes, read_section(kSnapshotSpacesFile));
  DESS_ASSIGN_OR_RETURN(
      std::vector<SimilaritySpace> spaces,
      DecodeSpaces(bytes, *registry, section_path(kSnapshotSpacesFile)));

  std::vector<std::unique_ptr<HierarchyNode>> hierarchies(registry->size());
  for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
    const std::string file = SnapshotHierarchyFile(registry->id(ordinal));
    DESS_ASSIGN_OR_RETURN(bytes, read_section(file));
    DESS_ASSIGN_OR_RETURN(hierarchies[ordinal],
                          DecodeHierarchy(bytes, section_path(file)));
  }

  // The engine's standardize flag travels with the snapshot so a later
  // Commit() on the reopened system calibrates spaces the same way the
  // saving system did.
  SearchEngineOptions engine_options = options.search;
  engine_options.registry = registry;
  engine_options.standardize = (manifest.flags & kFlagStandardize) != 0;
  system->options_.search.standardize = engine_options.standardize;

  // Every space's index is built through its configured backend, as
  // Commit() builds it. A usable graph section rides along with the id of
  // the backend that wrote it, so an approximate backend can restore its
  // structure instead of rebuilding it. Graph sections are the one
  // exception to fail-the-whole-open: they are pure accelerators, so an
  // absent, truncated or bit-flipped one downgrades to a deterministic
  // rebuild from the records.
  std::vector<PersistedIndex> persisted(registry->size());
  for (int ki = 0; ki < registry->size(); ++ki) {
    Result<std::string> graph =
        read_section(SnapshotGraphFile(registry->id(ki)));
    if (!graph.ok()) continue;
    persisted[ki].graph_backend = manifest.spaces[ki].backend;
    persisted[ki].graph = std::move(graph).value();
  }

  DESS_ASSIGN_OR_RETURN(
      std::unique_ptr<SearchEngine> engine,
      SearchEngine::Rebuild(view, engine_options, std::move(spaces),
                            &persisted));
  DESS_ASSIGN_OR_RETURN(
      std::shared_ptr<const SystemSnapshot> snapshot,
      SystemSnapshot::Assemble(view, manifest.epoch, std::move(engine),
                               std::move(hierarchies)));
  {
    std::lock_guard<std::mutex> publish(system->snapshot_mu_);
    system->snapshot_ = snapshot;
  }
  // The reopened snapshot is a full (non-layered) publish: it is the base
  // a later delta commit layers over, and every loaded record is covered.
  system->base_snapshot_ = std::move(snapshot);
  system->committed_records_ = system->db_.NumShapes();
  system->base_records_ = system->db_.NumShapes();
  // The snapshot does not record the prefix its spaces were calibrated
  // over, so later commit markers carry the record count: Open reads a
  // marker whose calibration_records equals its checkpoint's record count
  // as "the checkpoint's own calibration".
  system->calibration_records_ = system->db_.NumShapes();
  system->next_epoch_ = manifest.epoch + 1;
  system->dirty_ = false;
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metrics->AddCounter("persist.snapshots_opened");
  metrics->SetGauge("system.snapshot_epoch",
                    static_cast<double>(manifest.epoch));
  metrics->SetGauge("system.db_shapes",
                    static_cast<double>(system->db_.NumShapes()));
  return system;
}

}  // namespace dess
