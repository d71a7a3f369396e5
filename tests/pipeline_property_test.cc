// Property tests over the full extraction pipeline, parameterized across
// all 26 part families: every stage must uphold its invariants on every
// family, not just the handful exercised by the unit tests.

#include <gtest/gtest.h>

#include <cmath>

#include "src/features/extractors.h"
#include "src/geom/mesh_integrals.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "src/voxel/morphology.h"

namespace dess {
namespace {

class PipelinePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kMeshRes = 36;
  static constexpr int kVoxelRes = 24;

  Result<ExtractionArtifacts> RunPipeline(uint64_t seed) {
    Rng rng(seed);
    const SolidPtr solid = StandardPartFamilies()[GetParam()].build(&rng);
    DESS_ASSIGN_OR_RETURN(TriMesh mesh,
                          MeshSolid(*solid, {.resolution = kMeshRes}));
    ExtractionOptions opt;
    opt.voxelization.resolution = kVoxelRes;
    return ExtractFeatures(mesh, opt);
  }
};

TEST_P(PipelinePropertyTest, StagesUpholdInvariants) {
  auto art = RunPipeline(500 + GetParam());
  ASSERT_TRUE(art.ok()) << art.status().ToString();

  // Normalization: unit volume, centroid at origin, diagonalized moments.
  const MeshIntegrals mi = ComputeMeshIntegrals(art->normalization.mesh);
  EXPECT_NEAR(mi.volume, 1.0, 1e-6);
  EXPECT_NEAR(mi.Centroid().Norm(), 0.0, 1e-6);
  const Mat3 mu = mi.CentralSecondMoment();
  EXPECT_GE(mu(0, 0), mu(1, 1) - 1e-6);
  EXPECT_GE(mu(1, 1), mu(2, 2) - 1e-6);

  // Voxel model: non-empty, one 26-connected component (guaranteed by
  // KeepLargestComponent). It may touch the grid shell: the voxelizer's
  // boundary margin does not keep it off.
  EXPECT_GT(art->voxels.CountSet(), 0u);
  EXPECT_EQ(CountObjectComponents(art->voxels), 1);

  // Skeleton: subset of the solid, same component count.
  EXPECT_GT(art->skeleton.CountSet(), 0u);
  EXPECT_LE(art->skeleton.CountSet(), art->voxels.CountSet());
  EXPECT_EQ(CountObjectComponents(art->skeleton), 1);
  for (int k = 0; k < art->skeleton.nz(); ++k) {
    for (int j = 0; j < art->skeleton.ny(); ++j) {
      for (int i = 0; i < art->skeleton.nx(); ++i) {
        if (art->skeleton.Get(i, j, k)) {
          ASSERT_TRUE(art->voxels.Get(i, j, k))
              << "skeleton escaped the solid at " << i << "," << j << ","
              << k;
        }
      }
    }
  }

  // Features: declared dims, all finite.
  for (FeatureKind kind : AllFeatureKinds()) {
    const FeatureVector& fv = art->signature.Get(kind);
    ASSERT_EQ(fv.dim(), FeatureDim(kind)) << FeatureKindName(kind);
    for (double v : fv.values) {
      EXPECT_TRUE(std::isfinite(v)) << FeatureKindName(kind);
    }
  }
  // Principal moments positive and sorted.
  const auto& pm = art->signature.Get(FeatureKind::kPrincipalMoments).values;
  EXPECT_GT(pm[2], 0.0);
  EXPECT_GE(pm[0], pm[1]);
  EXPECT_GE(pm[1], pm[2]);
  // Moment invariants positive for any solid (eigenvalue symmetric
  // functions of a positive-definite matrix).
  const auto& inv =
      art->signature.Get(FeatureKind::kMomentInvariants).values;
  for (double v : inv) EXPECT_GT(v, 0.0);
}

TEST_P(PipelinePropertyTest, DeterministicForSeed) {
  auto a = RunPipeline(900);
  auto b = RunPipeline(900);
  ASSERT_TRUE(a.ok() && b.ok());
  for (FeatureKind kind : AllFeatureKinds()) {
    const auto& va = a->signature.Get(kind).values;
    const auto& vb = b->signature.Get(kind).values;
    for (size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va[i], vb[i]) << FeatureKindName(kind) << "[" << i << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PipelinePropertyTest,
                         ::testing::Range(0, 26));

class PoseInvariancePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PoseInvariancePropertyTest, MomentFeaturesSurviveRandomPose) {
  // Sample of families (all 26 would be slow at the higher resolution this
  // comparison needs).
  const int family = GetParam();
  Rng build_rng(1234 + family);
  const SolidPtr base = StandardPartFamilies()[family].build(&build_rng);
  auto mesh_a = MeshSolid(*base, {.resolution = 44});
  ASSERT_TRUE(mesh_a.ok());
  Rng pose_rng(4321 + family);
  auto mesh_b =
      MeshSolid(*RandomlyPosed(base, &pose_rng), {.resolution = 44});
  ASSERT_TRUE(mesh_b.ok());

  ExtractionOptions opt;
  opt.voxelization.resolution = 28;
  auto sa = ExtractSignature(*mesh_a, opt);
  auto sb = ExtractSignature(*mesh_b, opt);
  ASSERT_TRUE(sa.ok() && sb.ok());

  // Moment invariants are fully pose-invariant; principal moments are
  // scale-dependent in general but RandomlyPosed keeps scale within 15%,
  // and they are computed from the unit-volume normalized model anyway.
  for (FeatureKind kind : {FeatureKind::kMomentInvariants,
                           FeatureKind::kPrincipalMoments}) {
    const auto& va = sa->Get(kind).values;
    const auto& vb = sb->Get(kind).values;
    for (size_t i = 0; i < va.size(); ++i) {
      EXPECT_NEAR(va[i], vb[i], 0.12 * std::fabs(va[i]) + 0.02)
          << FeatureKindName(kind) << "[" << i << "] family " << family;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FamilySample, PoseInvariancePropertyTest,
                         ::testing::Values(0, 4, 7, 9, 12, 19, 24));

class NoiseShapePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NoiseShapePropertyTest, ThinningPreservesTopologyOnRandomCsg) {
  // Random CSG solids stress thinning with geometry no curated family
  // produces: unions of rotated primitives with tori and cavities.
  Rng rng(7000 + GetParam());
  const SolidPtr solid = BuildNoiseShape(&rng);
  auto grid = VoxelizeSolid(*solid, {.resolution = 22});
  ASSERT_TRUE(grid.ok());
  const VoxelGrid largest = KeepLargestComponent(*grid);
  ASSERT_EQ(CountObjectComponents(largest), 1);
  const int cavities_before = CountBackgroundComponents(largest);

  const VoxelGrid skeleton = ThinToSkeleton(largest);
  EXPECT_EQ(CountObjectComponents(skeleton), 1) << "component broken";
  // Thinning must not create new cavities (it can only remove material,
  // and simple-point deletion preserves background topology).
  EXPECT_LE(CountBackgroundComponents(skeleton), cavities_before);
  EXPECT_GT(skeleton.CountSet(), 0u);
  EXPECT_LE(skeleton.CountSet(), largest.CountSet());
}

TEST_P(NoiseShapePropertyTest, FullPipelineProducesFiniteFeatures) {
  Rng rng(8000 + GetParam());
  const SolidPtr solid = BuildNoiseShape(&rng);
  auto mesh = MeshSolid(*solid, {.resolution = 32});
  ASSERT_TRUE(mesh.ok());
  ExtractionOptions opt;
  opt.voxelization.resolution = 20;
  auto sig = ExtractSignature(*mesh, opt);
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();
  for (FeatureKind kind : AllFeatureKinds()) {
    for (double v : sig->Get(kind).values) {
      EXPECT_TRUE(std::isfinite(v)) << FeatureKindName(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCsg, NoiseShapePropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace dess
