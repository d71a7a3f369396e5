// The on-disk snapshot format (see persistence.h for the directory layout
// and failure taxonomy). Everything format-shaped lives in this one file:
// SystemSnapshot::SaveTo writes it, Dess3System::OpenFromSnapshot reads it
// back, and the MANIFEST ties the two together with a format version, the
// answering epoch, and a CRC-32C per section.

#include "src/core/persistence.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

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

/// Writes the MANIFEST: header, section table, then a trailing CRC-32C of
/// every preceding byte, so a reader can reject any torn or bit-flipped
/// manifest before trusting a single field.
Status WriteManifest(const std::string& path, const Manifest& manifest) {
  BinaryWriter w(path);
  if (!w.ok()) return Status::IOError("cannot open for write: " + path);
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
  const uint32_t self_crc = w.crc32c();
  w.WriteU32(self_crc);
  return w.Finish();
}

/// Reads and validates a MANIFEST. Taxonomy, in check order: NotFound when
/// the file does not exist, DataLoss when its self-CRC (or any field) is
/// bad, FailedPrecondition when the CRC is valid but the format version is
/// not ours — the self-CRC runs first so a bit flip in the version field
/// reads as corruption, not as version skew. The fields are parsed from
/// the very bytes the CRC verified, never from a second read of the file.
Result<Manifest> ReadManifest(const std::string& path) {
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    return Status::NotFound("no snapshot manifest at '" + path + "'");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IOError("cannot read manifest: " + path);
  }
  // Header (32 bytes) + trailing self-CRC is the smallest valid manifest.
  if (buf.size() < 36) {
    return Status::DataLoss("snapshot manifest truncated: " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + buf.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  if (Crc32c(buf.data(), buf.size() - sizeof(stored_crc)) != stored_crc) {
    return Status::DataLoss("snapshot manifest checksum mismatch: " + path);
  }

  ByteReader r(reinterpret_cast<const uint8_t*>(buf.data()),
               buf.size() - sizeof(stored_crc));
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
  return manifest;
}

/// records.bin: the catalog and every feature vector of every record, in
/// store order. Each feature is tagged with its registry ordinal. Geometry
/// lives in the (optional) meshes.bin so that feature-only snapshots stay
/// small.
Status WriteRecords(const std::string& path, const ShapeDatabase& db) {
  BinaryWriter w(path);
  if (!w.ok()) return Status::IOError("cannot open for write: " + path);
  w.WriteU64(db.NumShapes());
  for (const ShapeRecord& rec : db.records()) {
    w.WriteI32(rec.id);
    w.WriteString(rec.name);
    w.WriteI32(rec.group);
    const uint32_t nf = static_cast<uint32_t>(rec.signature.NumSpaces());
    w.WriteU32(nf);
    for (uint32_t f = 0; f < nf; ++f) {
      w.WriteU32(f);
      w.WriteF64Vector(rec.signature.At(f).values);
    }
  }
  return w.Finish();
}

Status LoadRecords(const std::string& path,
                   const FeatureSpaceRegistry& registry,
                   std::vector<ShapeRecord>* records) {
  BinaryReader r(path);
  if (!r.ok()) return Status::IOError("cannot open for read: " + path);
  uint64_t count = 0;
  if (!r.ReadU64(&count)) {
    return Status::DataLoss("truncated snapshot records: " + path);
  }
  records->clear();
  records->reserve(count);
  const uint32_t num_spaces = static_cast<uint32_t>(registry.size());
  for (uint64_t i = 0; i < count; ++i) {
    ShapeRecord rec;
    int32_t id = 0, group = 0;
    uint32_t nf = 0;
    if (!r.ReadI32(&id) || !r.ReadString(&rec.name) || !r.ReadI32(&group) ||
        !r.ReadU32(&nf) || nf != num_spaces) {
      return Status::DataLoss("truncated snapshot records: " + path);
    }
    rec.id = id;
    rec.group = group;
    for (uint32_t f = 0; f < nf; ++f) {
      uint32_t ordinal = 0;
      std::vector<double> values;
      if (!r.ReadU32(&ordinal) || ordinal >= num_spaces ||
          !r.ReadF64Vector(&values) ||
          values.size() != static_cast<size_t>(registry.dim(ordinal))) {
        return Status::DataLoss("bad feature vector in snapshot records: " +
                                path);
      }
      FeatureVector& fv = rec.signature.MutableAt(static_cast<int>(ordinal));
      fv.kind = static_cast<FeatureKind>(ordinal);
      fv.space = registry.id(ordinal);
      fv.values = std::move(values);
    }
    records->push_back(std::move(rec));
  }
  return r.Finish();
}

/// meshes.bin: record geometry keyed by id, same order as records.bin.
Status WriteMeshes(const std::string& path, const ShapeDatabase& db) {
  BinaryWriter w(path);
  if (!w.ok()) return Status::IOError("cannot open for write: " + path);
  w.WriteU64(db.NumShapes());
  for (const ShapeRecord& rec : db.records()) {
    w.WriteI32(rec.id);
    w.WriteU64(rec.mesh.NumVertices());
    for (const Vec3& v : rec.mesh.vertices()) {
      w.WriteF64(v.x);
      w.WriteF64(v.y);
      w.WriteF64(v.z);
    }
    w.WriteU64(rec.mesh.NumTriangles());
    for (const auto& t : rec.mesh.triangles()) {
      w.WriteU32(t[0]);
      w.WriteU32(t[1]);
      w.WriteU32(t[2]);
    }
  }
  return w.Finish();
}

Status LoadMeshes(const std::string& path,
                  std::unordered_map<int, TriMesh>* meshes) {
  BinaryReader r(path);
  if (!r.ok()) return Status::IOError("cannot open for read: " + path);
  uint64_t count = 0;
  if (!r.ReadU64(&count)) {
    return Status::DataLoss("truncated snapshot meshes: " + path);
  }
  for (uint64_t i = 0; i < count; ++i) {
    int32_t id = 0;
    uint64_t nv = 0;
    if (!r.ReadI32(&id) || !r.ReadU64(&nv)) {
      return Status::DataLoss("truncated snapshot meshes: " + path);
    }
    TriMesh mesh;
    for (uint64_t v = 0; v < nv; ++v) {
      double x, y, z;
      if (!r.ReadF64(&x) || !r.ReadF64(&y) || !r.ReadF64(&z)) {
        return Status::DataLoss("truncated snapshot mesh vertex: " + path);
      }
      mesh.AddVertex({x, y, z});
    }
    uint64_t nt = 0;
    if (!r.ReadU64(&nt)) {
      return Status::DataLoss("truncated snapshot meshes: " + path);
    }
    for (uint64_t t = 0; t < nt; ++t) {
      uint32_t a, b, c;
      if (!r.ReadU32(&a) || !r.ReadU32(&b) || !r.ReadU32(&c)) {
        return Status::DataLoss("truncated snapshot mesh triangle: " + path);
      }
      if (a >= nv || b >= nv || c >= nv) {
        return Status::DataLoss("snapshot mesh triangle index out of range: " +
                                path);
      }
      mesh.AddTriangle(a, b, c);
    }
    (*meshes)[id] = std::move(mesh);
  }
  return r.Finish();
}

/// spaces.bin: every calibrated SimilaritySpace, tagged with its registry
/// ordinal. Persisting stats, weights and d_max — not recomputing them —
/// is what makes a reopened system answer bit-identically: every distance
/// and similarity a query produces is a function of the raw features plus
/// exactly these numbers.
Status WriteSpaces(const std::string& path, const SearchEngine& engine) {
  BinaryWriter w(path);
  if (!w.ok()) return Status::IOError("cannot open for write: " + path);
  w.WriteU32(static_cast<uint32_t>(engine.NumSpaces()));
  for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
    const SimilaritySpace& space = engine.SpaceAt(ordinal);
    w.WriteU32(static_cast<uint32_t>(ordinal));
    w.WriteF64Vector(space.stats.mean);
    w.WriteF64Vector(space.stats.stddev);
    w.WriteF64Vector(space.weights);
    w.WriteF64(space.dmax);
  }
  return w.Finish();
}

Result<std::vector<SimilaritySpace>> LoadSpaces(
    const std::string& path, const FeatureSpaceRegistry& registry) {
  BinaryReader r(path);
  if (!r.ok()) return Status::IOError("cannot open for read: " + path);
  uint32_t n = 0;
  if (!r.ReadU32(&n) || n != static_cast<uint32_t>(registry.size())) {
    return Status::DataLoss("bad space count in snapshot spaces: " + path);
  }
  std::vector<SimilaritySpace> spaces(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t ordinal = 0;
    SimilaritySpace space;
    if (!r.ReadU32(&ordinal) || ordinal != i ||
        !r.ReadF64Vector(&space.stats.mean) ||
        !r.ReadF64Vector(&space.stats.stddev) ||
        !r.ReadF64Vector(&space.weights) || !r.ReadF64(&space.dmax)) {
      return Status::DataLoss("unparseable snapshot spaces: " + path);
    }
    space.kind = static_cast<FeatureKind>(i);
    space.id = registry.id(i);
    spaces[i] = std::move(space);
  }
  DESS_RETURN_NOT_OK(r.Finish());
  return spaces;
}

/// hierarchy_<kind>.bin: the browsing tree, preorder-recursive.
void WriteHierarchyNode(BinaryWriter& w, const HierarchyNode& node) {
  w.WriteI32Vector(node.members);
  w.WriteF64Vector(node.centroid);
  w.WriteU32(static_cast<uint32_t>(node.children.size()));
  for (const auto& child : node.children) {
    WriteHierarchyNode(w, *child);
  }
}

Result<std::unique_ptr<HierarchyNode>> ReadHierarchyNode(
    BinaryReader& r, const std::string& path, int depth) {
  if (depth > kMaxHierarchyDepth) {
    return Status::DataLoss("snapshot hierarchy too deep: " + path);
  }
  auto node = std::make_unique<HierarchyNode>();
  uint32_t num_children = 0;
  if (!r.ReadI32Vector(&node->members) || !r.ReadF64Vector(&node->centroid) ||
      !r.ReadU32(&num_children) || num_children > kMaxHierarchyChildren) {
    return Status::DataLoss("unparseable snapshot hierarchy: " + path);
  }
  node->children.reserve(num_children);
  for (uint32_t i = 0; i < num_children; ++i) {
    DESS_ASSIGN_OR_RETURN(std::unique_ptr<HierarchyNode> child,
                          ReadHierarchyNode(r, path, depth + 1));
    node->children.push_back(std::move(child));
  }
  return node;
}

Status WriteHierarchy(const std::string& path, const HierarchyNode& root) {
  BinaryWriter w(path);
  if (!w.ok()) return Status::IOError("cannot open for write: " + path);
  WriteHierarchyNode(w, root);
  return w.Finish();
}

Result<std::unique_ptr<HierarchyNode>> LoadHierarchy(
    const std::string& path) {
  BinaryReader r(path);
  if (!r.ok()) return Status::IOError("cannot open for read: " + path);
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<HierarchyNode> root,
                        ReadHierarchyNode(r, path, 1));
  DESS_RETURN_NOT_OK(r.Finish());
  return root;
}

}  // namespace

Status SystemSnapshot::SaveTo(const std::string& dir,
                              const SaveOptions& options) const {
  DESS_TIMED_SCOPE("snapshot.save");
  const FeatureSpaceRegistry& registry = engine_->registry();
  const fs::path target(dir);
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

  auto add_section = [&](const std::string& file) -> Status {
    DESS_ASSIGN_OR_RETURN(auto size_crc,
                          FileSizeAndCrc32c((staging / file).string()));
    manifest.sections.push_back({file, size_crc.first, size_crc.second});
    return Status::OK();
  };

  DESS_RETURN_NOT_OK(
      WriteRecords((staging / kSnapshotRecordsFile).string(), *db_));
  DESS_RETURN_NOT_OK(add_section(kSnapshotRecordsFile));
  if (options.include_meshes) {
    DESS_RETURN_NOT_OK(
        WriteMeshes((staging / kSnapshotMeshesFile).string(), *db_));
    DESS_RETURN_NOT_OK(add_section(kSnapshotMeshesFile));
  }
  DESS_RETURN_NOT_OK(
      WriteSpaces((staging / kSnapshotSpacesFile).string(), *engine_));
  DESS_RETURN_NOT_OK(add_section(kSnapshotSpacesFile));

  for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
    const std::string file = SnapshotHierarchyFile(registry.id(ordinal));
    DESS_RETURN_NOT_OK(
        WriteHierarchy((staging / file).string(), Hierarchy(ordinal)));
    DESS_RETURN_NOT_OK(add_section(file));
  }

  // Optional graph sections: the bytes the engine hands back for spaces
  // served by an approximate backend (SearchEngine::SerializedIndexAt), so
  // a reopen can skip the rebuild. The reader falls back to a rebuild from
  // the records whenever the section is absent.
  for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
    const std::optional<std::string> bytes =
        engine_->SerializedIndexAt(ordinal);
    if (!bytes.has_value()) continue;
    const std::string file = SnapshotGraphFile(registry.id(ordinal));
    std::ofstream gout((staging / file).string(),
                       std::ios::binary | std::ios::trunc);
    if (!gout) {
      return Status::IOError("cannot open for write: " +
                             (staging / file).string());
    }
    gout.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
    gout.close();
    if (!gout) {
      return Status::IOError("cannot write snapshot graph section: " +
                             (staging / file).string());
    }
    DESS_RETURN_NOT_OK(add_section(file));
  }

  // The manifest is written last inside the staging directory, so even the
  // staging area never looks complete before it is.
  DESS_RETURN_NOT_OK(
      WriteManifest((staging / kSnapshotManifestFile).string(), manifest));

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
  MetricsRegistry::Global()->AddCounter("persist.snapshots_saved");
  return Status::OK();
}

Result<std::unique_ptr<Dess3System>> Dess3System::OpenFromSnapshot(
    const std::string& dir, const OpenOptions& open_options,
    const SystemOptions& options) {
  DESS_TIMED_SCOPE("snapshot.open");
  const fs::path root(dir);
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

  // Every section the manifest promises must exist with the advertised
  // bytes before anything is parsed or published — a missing, truncated or
  // bit-flipped section fails the whole open, never a partial publish.
  std::vector<std::string> required = {kSnapshotRecordsFile,
                                       kSnapshotSpacesFile};
  if ((manifest.flags & kFlagIncludeMeshes) != 0) {
    required.push_back(kSnapshotMeshesFile);
  }
  for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
    required.push_back(SnapshotHierarchyFile(registry->id(ordinal)));
  }
  for (const std::string& file : required) {
    if (FindSection(manifest, file) == nullptr) {
      return Status::DataLoss("snapshot manifest lists no section '" + file +
                              "' in '" + dir + "'");
    }
  }
  // Graph sections are the one exception to fail-the-whole-open: they are
  // pure accelerators, so a missing, truncated or bit-flipped graph file
  // downgrades to a deterministic rebuild from the records instead of
  // refusing a snapshot whose authoritative sections are intact.
  std::set<std::string> unusable_graphs;
  for (const ManifestSection& section : manifest.sections) {
    const std::string path = (root / section.file).string();
    const bool optional_graph =
        section.file.rfind(kSnapshotGraphPrefix, 0) == 0;
    if (!open_options.verify_checksums) {
      if (!fs::exists(path, ec)) {
        if (optional_graph) {
          unusable_graphs.insert(section.file);
          continue;
        }
        return Status::DataLoss("snapshot section missing: " + path);
      }
      continue;
    }
    Result<std::pair<uint64_t, uint32_t>> size_crc = FileSizeAndCrc32c(path);
    if (!size_crc.ok()) {
      if (optional_graph) {
        unusable_graphs.insert(section.file);
        continue;
      }
      return Status::DataLoss("snapshot section unreadable: " + path + " (" +
                              size_crc.status().message() + ")");
    }
    if (size_crc.value().first != section.size ||
        size_crc.value().second != section.crc) {
      if (optional_graph) {
        unusable_graphs.insert(section.file);
        continue;
      }
      return Status::DataLoss("snapshot section checksum mismatch: " + path);
    }
  }

  std::vector<ShapeRecord> records;
  DESS_RETURN_NOT_OK(
      LoadRecords((root / kSnapshotRecordsFile).string(), *registry,
                  &records));
  if (records.size() != manifest.num_shapes) {
    return Status::DataLoss(
        StrFormat("snapshot records hold %zu shapes, manifest says %llu: %s",
                  records.size(),
                  static_cast<unsigned long long>(manifest.num_shapes),
                  dir.c_str()));
  }
  if ((manifest.flags & kFlagIncludeMeshes) != 0) {
    std::unordered_map<int, TriMesh> meshes;
    DESS_RETURN_NOT_OK(
        LoadMeshes((root / kSnapshotMeshesFile).string(), &meshes));
    for (ShapeRecord& rec : records) {
      auto it = meshes.find(rec.id);
      if (it == meshes.end()) {
        return Status::DataLoss(
            StrFormat("snapshot meshes missing shape %d: %s", rec.id,
                      dir.c_str()));
      }
      rec.mesh = std::move(it->second);
    }
  }

  auto system = std::make_unique<Dess3System>(options);
  for (ShapeRecord& rec : records) {
    Status st = system->db_.InsertWithId(std::move(rec));
    if (!st.ok()) {
      return Status::DataLoss("snapshot records invalid: " + st.message());
    }
  }
  std::shared_ptr<const ShapeDatabase> view = system->db_.SnapshotView();

  Result<std::vector<SimilaritySpace>> spaces_or =
      LoadSpaces((root / kSnapshotSpacesFile).string(), *registry);
  if (!spaces_or.ok()) return spaces_or.status();
  std::vector<SimilaritySpace> spaces = std::move(spaces_or).value();

  std::vector<std::unique_ptr<HierarchyNode>> hierarchies(registry->size());
  for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
    DESS_ASSIGN_OR_RETURN(
        hierarchies[ordinal],
        LoadHierarchy(
            (root / SnapshotHierarchyFile(registry->id(ordinal))).string()));
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
  // structure instead of rebuilding it.
  std::vector<PersistedIndex> persisted(registry->size());
  for (int ki = 0; ki < registry->size(); ++ki) {
    const std::string gfile = SnapshotGraphFile(registry->id(ki));
    if (FindSection(manifest, gfile) == nullptr ||
        unusable_graphs.count(gfile) > 0) {
      continue;
    }
    std::ifstream gin((root / gfile).string(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(gin)),
                      std::istreambuf_iterator<char>());
    if (gin.good() || gin.eof()) {
      persisted[ki].graph_backend = manifest.spaces[ki].backend;
      persisted[ki].graph = std::move(bytes);
    }
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
