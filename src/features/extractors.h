#ifndef DESS_FEATURES_EXTRACTORS_H_
#define DESS_FEATURES_EXTRACTORS_H_

#include <chrono>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/features/feature_space.h"
#include "src/features/feature_vector.h"
#include "src/features/normalization.h"
#include "src/geom/trimesh.h"
#include "src/graph/graph_builder.h"
#include "src/graph/skeletal_graph.h"
#include "src/linalg/mat3.h"
#include "src/skeleton/thinning.h"
#include "src/voxel/voxelizer.h"

namespace dess {

class ThreadPool;

/// Parameters for the feature-extraction pipeline of Figure 2
/// (normalization -> voxelization -> skeletonization -> feature collection).
struct ExtractionOptions {
  NormalizationOptions normalization;
  VoxelizationOptions voxelization;
  ThinningOptions thinning;
  GraphBuilderOptions graph;
  /// If true, second-order moments for the moment-invariant and
  /// principal-moment features are taken from the voxel model (as in the
  /// paper); if false, exact mesh integrals are used instead.
  bool voxel_moments = true;
  /// Optional worker pool for intra-shape parallelism: forwarded to the
  /// voxelization and thinning stages (unless those set their own pool).
  /// Stage outputs are bit-identical to the serial path for any thread
  /// count. Non-owning; the pool must outlive the call.
  ThreadPool* pool = nullptr;
  /// Feature spaces to extract. Null means the canonical registry (the
  /// paper's four descriptors); a registry with additional spaces runs
  /// each registered extractor over the pipeline artifacts, appending its
  /// vector at the space's registry ordinal.
  std::shared_ptr<const FeatureSpaceRegistry> registry;
};

/// Central second moments of one shape, computed once per extraction for
/// the moment-based spaces: from the voxel model when
/// ExtractionOptions::voxel_moments is set (then both matrices coincide),
/// from exact mesh integrals otherwise.
struct SecondMoments {
  Mat3 original;    // of the original (unnormalized) model
  Mat3 normalized;  // of the normalized model
  double original_volume = 0.0;  // the volume `original` is scaled by
};

/// All intermediate artifacts of one extraction run, exposed so tests,
/// examples, and ablation benches can inspect each stage. An extraction
/// fills the artifacts up to the deepest PipelineStage its spaces need;
/// the rest stay default-constructed (empty grids, empty graph).
struct ExtractionArtifacts {
  NormalizationResult normalization;
  VoxelGrid voxels;    // solid voxelization of the normalized mesh
  SecondMoments moments;
  VoxelGrid skeleton;  // thinned curve skeleton
  SkeletalGraph graph;
  /// One slot per registered space, in registry order. Slots of spaces
  /// the extraction did not compute are empty (dim 0).
  ShapeSignature signature;
};

/// Runs the full pipeline on a closed mesh and returns every registered
/// feature vector plus intermediates. This is the expensive path
/// (thinning dominates); for features-only callers see ExtractSignature.
Result<ExtractionArtifacts> ExtractFeatures(
    const TriMesh& mesh, const ExtractionOptions& options = {});

/// Extracts only the spaces at the given registry ordinals (duplicates
/// allowed), running only the stages they need. Their slots are
/// bit-identical to a full extraction's. InvalidArgument for an ordinal
/// outside the registry. With a `deadline` (epoch = none), fails
/// DeadlineExceeded, naming the stage, if it passes before a stage starts.
Result<ExtractionArtifacts> ExtractFeatures(
    const TriMesh& mesh, const ExtractionOptions& options,
    const std::vector<int>& spaces,
    std::chrono::steady_clock::time_point deadline = {});

/// Convenience wrapper returning only the signature.
Result<ShapeSignature> ExtractSignature(const TriMesh& mesh,
                                        const ExtractionOptions& options = {});

/// Individual extractors operating on precomputed artifacts — used to
/// assemble the signature and by unit tests.

/// Moment invariants F1-F3 from the original (unnormalized) model's central
/// second moments scale-normalized by mu000^(5/3).
FeatureVector MomentInvariantsFeature(const Mat3& central_second_moments,
                                      double volume);

/// Geometric parameters: two aspect ratios of the normalized bounding box,
/// surface-to-volume ratio (made dimensionless as S^1.5 / V), the
/// normalization scale factor, and the original volume.
FeatureVector GeometricParamsFeature(const NormalizationResult& norm);

/// Principal moments: eigenvalues (descending) of the central second-moment
/// matrix of the normalized model.
FeatureVector PrincipalMomentsFeature(const Mat3& central_second_moments);

/// Eigenvalue signature of the skeletal graph's typed adjacency matrix.
FeatureVector SpectralFeature(const SkeletalGraph& graph);

/// The registry definition of one of the paper's four spaces: its id, dim,
/// stage dependency, and an extractor wrapping the function above.
FeatureSpaceDef CanonicalSpaceDef(FeatureKind kind);

}  // namespace dess

#endif  // DESS_FEATURES_EXTRACTORS_H_
