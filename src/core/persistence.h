#ifndef DESS_CORE_PERSISTENCE_H_
#define DESS_CORE_PERSISTENCE_H_

#include <cstdint>
#include <string>

namespace dess {

/// On-disk snapshot format understood by this build. The snapshot is a
/// directory of sections — frozen record store, the feature-vector sets,
/// calibrated similarity spaces, browsing hierarchies, optional graph
/// sections — described by a MANIFEST that carries the format version,
/// the answering epoch, a feature-space table (id, dimension and serving
/// backend id per registered space, in registry order) and a CRC-32C per
/// section. The manifest itself is self-checksummed. Every file is fsynced
/// as it is written, and the whole directory is staged, synced and renamed
/// into place (the parent directory is synced after the rename), so a
/// snapshot either opens completely or not at all, even after a power loss.
///
/// Failure taxonomy (pinned, like the QueryRequest codes):
///  - DataLoss: a checksum mismatch, truncated/missing section, a section
///    with bytes past its last field, or an unparseable manifest — the
///    snapshot cannot be trusted.
///  - FailedPrecondition: version skew (any version but this one) or a
///    feature-space mismatch — a valid snapshot that this process cannot
///    serve as configured (an upgrade/configuration problem, not data
///    loss).
///  - NotFound: the directory holds no snapshot at all (no MANIFEST).
///
/// Indexes: a reopened engine builds every space's index through its
/// configured backend from the loaded records, exactly as Commit() does,
/// so no exact index is persisted. A space served by an approximate
/// backend may add a graph_<id>.ann section with the backend's serialized
/// structure (e.g. the HNSW graph topology). Graph sections are pure
/// accelerators: a reader whose configuration resolves a different
/// backend for the space — or that finds the bytes missing or unusable —
/// rebuilds the index from the records instead of failing.
inline constexpr uint32_t kSnapshotFormatVersion = 4;

/// File names inside a snapshot directory. Per-feature-space sections are
/// named <prefix><space id><suffix>; use SnapshotHierarchyFile /
/// SnapshotGraphFile below instead of concatenating by hand, so the layout
/// has one source of truth.
inline constexpr char kSnapshotManifestFile[] = "MANIFEST";
inline constexpr char kSnapshotRecordsFile[] = "records.bin";
inline constexpr char kSnapshotMeshesFile[] = "meshes.bin";
inline constexpr char kSnapshotSpacesFile[] = "spaces.bin";
inline constexpr char kSnapshotHierarchyPrefix[] = "hierarchy_";
inline constexpr char kSnapshotHierarchySuffix[] = ".bin";
inline constexpr char kSnapshotGraphPrefix[] = "graph_";
inline constexpr char kSnapshotGraphSuffix[] = ".ann";

/// Browsing-hierarchy section of one feature space ("hierarchy_<id>.bin").
inline std::string SnapshotHierarchyFile(const std::string& space_id) {
  return std::string(kSnapshotHierarchyPrefix) + space_id +
         kSnapshotHierarchySuffix;
}

/// Serialized approximate-index structure of one feature space
/// ("graph_<id>.ann", optional — see kSnapshotFormatVersion).
inline std::string SnapshotGraphFile(const std::string& space_id) {
  return std::string(kSnapshotGraphPrefix) + space_id + kSnapshotGraphSuffix;
}

/// How SystemSnapshot::SaveTo writes a snapshot directory. A struct, not
/// positional bools, in the QueryRequest style: new knobs extend the
/// struct rather than the signatures.
struct SaveOptions {
  /// Persist record geometry (meshes.bin). Feature-only snapshots are much
  /// smaller and still serve every query path; they cannot seed workloads
  /// that need the meshes back (rendering, re-extraction at a different
  /// resolution).
  bool include_meshes = true;
  /// Replace an existing snapshot at the target directory. When false,
  /// saving over a directory that already holds a MANIFEST fails with
  /// AlreadyExists.
  bool overwrite = false;
};

/// How Dess3System::OpenFromSnapshot reads one back.
struct OpenOptions {
  /// Check every section's size and CRC-32C against the manifest before
  /// parsing it (each section is read once, and the bytes checked are the
  /// bytes parsed). Disable only for trusted local restarts where
  /// cold-start latency matters more than bitrot detection; the decoders
  /// still reject any section they cannot consume exactly.
  bool verify_checksums = true;
};

}  // namespace dess

#endif  // DESS_CORE_PERSISTENCE_H_
