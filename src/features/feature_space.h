#ifndef DESS_FEATURES_FEATURE_SPACE_H_
#define DESS_FEATURES_FEATURE_SPACE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/features/feature_vector.h"

namespace dess {

struct ExtractionArtifacts;

/// Extractor callback of one feature space: computes the space's vector
/// from the pipeline artifacts of one shape (normalized mesh, voxel model,
/// skeleton, skeletal graph) up to its space's declared PipelineStage, never
/// from `signature` (other spaces' slots may be empty). Must be
/// deterministic and thread-compatible; it may run concurrently for
/// different shapes.
using FeatureExtractorFn =
    std::function<Result<FeatureVector>(const ExtractionArtifacts&)>;

/// The deepest extraction-pipeline artifact an extractor reads. Stages run
/// in this order, so each level includes the ones before it; an extraction
/// runs only as deep as the spaces it computes need.
enum class PipelineStage {
  kNormalized,  // ExtractionArtifacts::normalization (the normalized mesh)
  kVoxels,      // + voxels (solid, largest component) and moments
  kSkeleton,    // + skeleton and graph
};

/// One feature space: the unit of extensibility of the descriptor set.
/// The paper fixes four descriptors (Section 3.5); registering a
/// FeatureSpaceDef adds a fifth (sixth, ...) that every layer — extraction,
/// search, persistence, browsing hierarchies, eval — picks up without
/// further surgery.
struct FeatureSpaceDef {
  /// Stable identifier: lowercase [a-z0-9_]+, unique within a registry.
  /// Used to address the space in QueryRequest/MultiStepStage and to name
  /// its persistence sections (hierarchy_<id>.bin, graph_<id>.ann), so it
  /// must stay stable across versions of the registering code.
  std::string id;
  /// Dimensionality of the space's vectors.
  int dim = 0;
  /// Computes the vector from the pipeline artifacts.
  FeatureExtractorFn extractor;
  /// Deepest artifact `extractor` reads. Artifacts past it may be left
  /// empty when only this space (or other shallow ones) is extracted, so
  /// the extractor must not read them. The default runs the whole
  /// pipeline, which is always safe.
  PipelineStage needs = PipelineStage::kSkeleton;
  /// Standardize dimensions before distances (recommended unless the
  /// space is already normalized, e.g. a probability histogram).
  bool standardize = true;
  /// Per-dimension weights installed at engine build; empty means all 1.0.
  std::vector<double> default_weights;
  /// Index backend id for this space ("linear_scan", "rtree", "hnsw", or a
  /// backend registered with the engine's IndexBackendRegistry). Empty
  /// follows the engine-wide setting; an explicit id forces one backend
  /// regardless of it (useful for high-dimensional histogram spaces where
  /// an R-tree degenerates).
  std::string index_backend;
};

/// An ordered, append-only set of feature spaces. Every registry starts
/// with the four canonical paper spaces at ordinals 0..3 — in FeatureKind
/// enum order, so `static_cast<int>(kind)` is the registry ordinal of a
/// canonical space — and additional spaces append after them.
///
/// A registry is mutable while the owner sets it up (Register) and must
/// not change once shared with a system/engine; the usual pattern is to
/// build one, hand it to SystemOptions::feature_spaces as a
/// shared_ptr<const ...>, and never touch it again.
class FeatureSpaceRegistry {
 public:
  /// Seeded with the four canonical spaces.
  FeatureSpaceRegistry();

  /// The shared canonical registry (exactly the paper's four spaces).
  static std::shared_ptr<const FeatureSpaceRegistry> Canonical();

  /// Appends a space, returning its ordinal. InvalidArgument for a
  /// malformed id, duplicate id, non-positive dim, missing extractor, or
  /// default weights that are negative or of the wrong dimension.
  Result<int> Register(FeatureSpaceDef def);

  int size() const { return static_cast<int>(spaces_.size()); }
  const FeatureSpaceDef& space(int ordinal) const { return spaces_[ordinal]; }
  const std::string& id(int ordinal) const { return spaces_[ordinal].id; }
  int dim(int ordinal) const { return spaces_[ordinal].dim; }

  /// Ordinal of a space id, -1 when unknown.
  int IndexOf(const std::string& id) const;

  /// Ordinal of a space id; InvalidArgument (listing the registered ids)
  /// when unknown — the pinned taxonomy for addressing a space that is not
  /// registered.
  Result<int> Resolve(const std::string& id) const;

  /// All ids in registry order.
  std::vector<std::string> Ids() const;

 private:
  std::vector<FeatureSpaceDef> spaces_;
};

/// Canonical id of one of the paper's four spaces (== FeatureKindName).
const std::string& CanonicalSpaceId(FeatureKind kind);

/// Null-tolerant accessor: `registry` if non-null, the canonical registry
/// otherwise. Every layer that accepts an optional registry funnels
/// through this so "no registry configured" means the paper's four spaces.
std::shared_ptr<const FeatureSpaceRegistry> RegistryOrCanonical(
    std::shared_ptr<const FeatureSpaceRegistry> registry);

}  // namespace dess

#endif  // DESS_FEATURES_FEATURE_SPACE_H_
