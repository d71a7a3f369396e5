#include "src/features/extractors.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>

#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/features/moments.h"
#include "src/graph/spectral.h"
#include "src/linalg/eigen.h"
#include "src/voxel/morphology.h"

namespace dess {

FeatureVector MomentInvariantsFeature(const Mat3& central_second_moments,
                                      double volume) {
  FeatureVector fv;
  fv.kind = FeatureKind::kMomentInvariants;
  fv.space = CanonicalSpaceId(fv.kind);
  const Mat3 i_matrix =
      ScaleNormalizedSecondMoments(central_second_moments, volume);
  double f1, f2, f3;
  MomentInvariantsF(i_matrix, &f1, &f2, &f3);
  // F1, F2, F3 are of orders lambda, lambda^2, lambda^3 in the principal
  // moments; bring them to a common order so no component dominates the
  // Euclidean metric (the paper notes same-order elements make feedback
  // "more meaningful and simpler").
  fv.values = {f1, (f2 >= 0.0 ? std::sqrt(f2) : -std::sqrt(-f2)),
               std::cbrt(f3)};
  return fv;
}

FeatureVector GeometricParamsFeature(const NormalizationResult& norm) {
  FeatureVector fv;
  fv.kind = FeatureKind::kGeometricParams;
  fv.space = CanonicalSpaceId(fv.kind);
  const Aabb box = norm.mesh.BoundingBox();
  const Vec3 ext = box.Extent();
  // After PCA alignment, extents are ordered roughly x >= y >= z; both
  // ratios are >= ~1 and dimensionless.
  const double aspect1 = ext.y > 1e-12 ? ext.x / ext.y : 0.0;
  const double aspect2 = ext.z > 1e-12 ? ext.y / ext.z : 0.0;
  // Dimensionless shell-ness: S^(3/2) / V is scale invariant (= ~14.9 for a
  // sphere, larger for thin shells). The paper's raw S/V carries units; the
  // dimensionless form preserves its meaning ("large implies shell-like").
  const double s_over_v =
      norm.original_volume > 1e-12
          ? std::pow(norm.original_surface_area, 1.5) / norm.original_volume
          : 0.0;
  fv.values = {aspect1, aspect2, s_over_v, norm.scale_factor,
               norm.original_volume};
  return fv;
}

FeatureVector PrincipalMomentsFeature(const Mat3& central_second_moments) {
  FeatureVector fv;
  fv.kind = FeatureKind::kPrincipalMoments;
  fv.space = CanonicalSpaceId(fv.kind);
  const SymmetricEigen3 eig = EigenSymmetric3(central_second_moments);
  fv.values = {eig.values[0], eig.values[1], eig.values[2]};
  return fv;
}

FeatureVector SpectralFeature(const SkeletalGraph& graph) {
  FeatureVector fv;
  fv.kind = FeatureKind::kSpectral;
  fv.space = CanonicalSpaceId(fv.kind);
  fv.values = SpectralSignature(graph);
  return fv;
}

FeatureSpaceDef CanonicalSpaceDef(FeatureKind kind) {
  FeatureSpaceDef def;
  def.id = CanonicalSpaceId(kind);
  def.dim = FeatureDim(kind);
  switch (kind) {
    case FeatureKind::kMomentInvariants:
      def.needs = PipelineStage::kVoxels;
      def.extractor = [](const ExtractionArtifacts& art)
          -> Result<FeatureVector> {
        return MomentInvariantsFeature(art.moments.original,
                                       art.moments.original_volume);
      };
      break;
    case FeatureKind::kGeometricParams:
      def.needs = PipelineStage::kNormalized;
      def.extractor = [](const ExtractionArtifacts& art)
          -> Result<FeatureVector> {
        return GeometricParamsFeature(art.normalization);
      };
      break;
    case FeatureKind::kPrincipalMoments:
      def.needs = PipelineStage::kVoxels;
      def.extractor = [](const ExtractionArtifacts& art)
          -> Result<FeatureVector> {
        return PrincipalMomentsFeature(art.moments.normalized);
      };
      break;
    case FeatureKind::kSpectral:
      def.needs = PipelineStage::kSkeleton;
      def.extractor = [](const ExtractionArtifacts& art)
          -> Result<FeatureVector> { return SpectralFeature(art.graph); };
      break;
  }
  return def;
}

namespace {

/// DeadlineExceeded when `deadline` (epoch = none) passed before `stage`.
Status CheckStageDeadline(std::chrono::steady_clock::time_point deadline,
                          const char* stage) {
  if (deadline != std::chrono::steady_clock::time_point{} &&
      std::chrono::steady_clock::now() > deadline) {
    return Status::DeadlineExceeded(
        std::string("extraction deadline passed before stage ") + stage);
  }
  return Status::OK();
}

SecondMoments ComputeSecondMoments(const ExtractionArtifacts& art,
                                   bool voxel_moments) {
  SecondMoments moments;
  if (voxel_moments) {
    moments.normalized = VoxelSecondMomentMatrix(art.voxels);
    // The I-matrix is invariant to the normalization pose, so the voxel
    // model of the normalized mesh is a valid stand-in for the original —
    // but its volume must be the voxel volume for consistency.
    moments.original = moments.normalized;
    moments.original_volume = art.voxels.SolidVolume();
  } else {
    moments.original =
        art.normalization.original_integrals.CentralSecondMoment();
    moments.normalized =
        ComputeMeshIntegrals(art.normalization.mesh).CentralSecondMoment();
    moments.original_volume = art.normalization.original_volume;
  }
  return moments;
}

/// Runs the extractor of the space at `ordinal`. The paper's four keep
/// their pre-registry span and histogram names (the eigenvalues space
/// records as stage.feature.spectral); a registered space records a
/// stage.feature.<id> latency histogram and no trace span.
Result<FeatureVector> RunExtractor(const FeatureSpaceDef& def, int ordinal,
                                   const ExtractionArtifacts& art) {
  if (ordinal < kNumFeatureKinds) {
    static constexpr const char* kStageNames[kNumFeatureKinds] = {
        "stage.feature.moment_invariants", "stage.feature.geometric_params",
        "stage.feature.principal_moments", "stage.feature.spectral"};
    DESS_TIMED_SCOPE(kStageNames[ordinal]);
    return def.extractor(art);
  }
  const auto start = std::chrono::steady_clock::now();
  Result<FeatureVector> extracted = def.extractor(art);
  MetricsRegistry::Global()->RecordLatency(
      "stage.feature." + def.id,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return extracted;
}

}  // namespace

Result<ExtractionArtifacts> ExtractFeatures(const TriMesh& mesh,
                                            const ExtractionOptions& options) {
  std::vector<int> all(RegistryOrCanonical(options.registry)->size());
  std::iota(all.begin(), all.end(), 0);
  return ExtractFeatures(mesh, options, all);
}

Result<ExtractionArtifacts> ExtractFeatures(
    const TriMesh& mesh, const ExtractionOptions& options,
    const std::vector<int>& spaces,
    std::chrono::steady_clock::time_point deadline) {
  const std::shared_ptr<const FeatureSpaceRegistry> registry =
      RegistryOrCanonical(options.registry);
  std::vector<bool> wanted(registry->size(), false);
  PipelineStage depth = PipelineStage::kNormalized;
  for (int ordinal : spaces) {
    if (ordinal < 0 || ordinal >= registry->size()) {
      return Status::InvalidArgument(
          StrFormat("extraction: feature-space ordinal %d out of range "
                    "[0, %d)",
                    ordinal, registry->size()));
    }
    wanted[ordinal] = true;
    depth = std::max(depth, registry->space(ordinal).needs);
  }
  DESS_RETURN_NOT_OK(CheckStageDeadline(deadline, "normalize"));

  // Forward the pipeline-level pool into the parallelizable stages unless
  // the caller already configured them individually.
  VoxelizationOptions vox_options = options.voxelization;
  ThinningOptions thin_options = options.thinning;
  if (options.pool != nullptr) {
    if (vox_options.pool == nullptr) vox_options.pool = options.pool;
    if (thin_options.pool == nullptr) thin_options.pool = options.pool;
  }

  // The whole-pipeline span plus per-stage spans: the inner stages
  // (normalize / voxelize / fill / moments / thin / graph / features) are
  // a breakdown of "pipeline.extract", which also absorbs glue such as
  // largest-component selection.
  DESS_TIMED_SCOPE("pipeline.extract");
  MetricsRegistry::Global()->AddCounter("pipeline.extractions");

  ExtractionArtifacts art;
  // Stage 1: normalization (translation, rotation, scale — Eq. 3.2-3.4).
  {
    DESS_TIMED_SCOPE("stage.normalize");
    DESS_ASSIGN_OR_RETURN(art.normalization,
                          NormalizeMesh(mesh, options.normalization));
  }

  if (depth >= PipelineStage::kVoxels) {
    // Stage 2: voxelization of the normalized model (Eq. 3.5). Keep the
    // largest component: sub-voxel gaps in thin CAD features can split the
    // voxel model even when the solid is connected. VoxelizeMesh records
    // the stage.voxelize / stage.fill spans internally.
    DESS_RETURN_NOT_OK(CheckStageDeadline(deadline, "voxelize"));
    DESS_ASSIGN_OR_RETURN(art.voxels,
                          VoxelizeMesh(art.normalization.mesh, vox_options));
    art.voxels = KeepLargestComponent(art.voxels);
    {
      DESS_TIMED_SCOPE("stage.moments");
      art.moments = ComputeSecondMoments(art, options.voxel_moments);
    }
  }

  if (depth >= PipelineStage::kSkeleton) {
    // Stage 3: skeletonization + skeletal graph (Sections 3.3-3.4); these
    // record stage.thin and stage.graph internally.
    DESS_RETURN_NOT_OK(CheckStageDeadline(deadline, "thin"));
    art.skeleton = ThinToSkeleton(art.voxels, thin_options);
    art.graph = BuildSkeletalGraph(art.skeleton, options.graph);
  }

  // Stage 4: feature collection, in registry order. Every slot carries its
  // space's id; only the wanted ones get values.
  DESS_RETURN_NOT_OK(CheckStageDeadline(deadline, "features"));
  for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
    const FeatureSpaceDef& def = registry->space(ordinal);
    FeatureVector& slot = art.signature.MutableAt(ordinal);
    slot.space = def.id;
    slot.kind = static_cast<FeatureKind>(ordinal);
    if (!wanted[ordinal]) continue;
    Result<FeatureVector> extracted = RunExtractor(def, ordinal, art);
    if (!extracted.ok()) {
      return Status(extracted.status().code(),
                    "feature space '" + def.id +
                        "': " + extracted.status().message());
    }
    if (extracted->dim() != def.dim) {
      return Status::Internal(
          "feature space '" + def.id + "': extractor returned dim " +
          std::to_string(extracted->dim()) + ", registered dim " +
          std::to_string(def.dim));
    }
    slot.values = std::move(extracted->values);
  }
  return art;
}

Result<ShapeSignature> ExtractSignature(const TriMesh& mesh,
                                        const ExtractionOptions& options) {
  DESS_ASSIGN_OR_RETURN(ExtractionArtifacts art,
                        ExtractFeatures(mesh, options));
  return art.signature;
}

}  // namespace dess
