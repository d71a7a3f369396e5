#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "src/features/extractors.h"
#include "src/features/shape_distribution.h"
#include "src/index/multidim_index.h"
#include "src/modelgen/csg.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"

namespace dess {
namespace {

ExtractionOptions FastOptions() {
  ExtractionOptions opt;
  opt.voxelization.resolution = 24;
  return opt;
}

Result<TriMesh> FamilyMesh(int family, uint64_t seed) {
  Rng rng(seed);
  return MeshSolid(*StandardPartFamilies()[family].build(&rng),
                   {.resolution = 40});
}

TEST(ExtractorsTest, AllFourFeatureVectorsHaveDeclaredDims) {
  auto mesh = FamilyMesh(0, 1);
  ASSERT_TRUE(mesh.ok());
  auto sig = ExtractSignature(*mesh, FastOptions());
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();
  for (FeatureKind kind : AllFeatureKinds()) {
    EXPECT_EQ(sig->Get(kind).dim(), FeatureDim(kind))
        << FeatureKindName(kind);
    EXPECT_EQ(sig->Get(kind).kind, kind);
  }
  EXPECT_EQ(static_cast<int>(sig->Concatenated().size()),
            FeatureDim(FeatureKind::kMomentInvariants) +
                FeatureDim(FeatureKind::kGeometricParams) +
                FeatureDim(FeatureKind::kPrincipalMoments) +
                FeatureDim(FeatureKind::kSpectral));
}

TEST(ExtractorsTest, ArtifactsExposePipelineStages) {
  auto mesh = FamilyMesh(7, 2);  // straight tube
  ASSERT_TRUE(mesh.ok());
  auto art = ExtractFeatures(*mesh, FastOptions());
  ASSERT_TRUE(art.ok());
  EXPECT_GT(art->voxels.CountSet(), 0u);
  EXPECT_GT(art->skeleton.CountSet(), 0u);
  EXPECT_LT(art->skeleton.CountSet(), art->voxels.CountSet());
  EXPECT_NEAR(ComputeMeshIntegrals(art->normalization.mesh).volume, 1.0,
              1e-6);
}

TEST(ExtractorsTest, PrincipalMomentsDescending) {
  auto mesh = FamilyMesh(15, 3);  // angle iron: clearly anisotropic
  ASSERT_TRUE(mesh.ok());
  auto sig = ExtractSignature(*mesh, FastOptions());
  ASSERT_TRUE(sig.ok());
  const auto& pm = sig->Get(FeatureKind::kPrincipalMoments).values;
  EXPECT_GE(pm[0], pm[1]);
  EXPECT_GE(pm[1], pm[2]);
  EXPECT_GT(pm[2], 0.0);
}

TEST(ExtractorsTest, MomentInvariantsMatchSymmetricFunctions) {
  // With voxel moments, the three invariants are the elementary symmetric
  // polynomials of the principal moments divided by the voxel volume term
  // V^(5/3 * order) (after the same-order transform F1, sqrt(F2),
  // cbrt(F3)). This pins down the exact algebraic relationship between the
  // two descriptors the paper observes to behave similarly.
  auto mesh = FamilyMesh(4, 4);  // flange
  ASSERT_TRUE(mesh.ok());
  auto art = ExtractFeatures(*mesh, FastOptions());
  ASSERT_TRUE(art.ok());
  const auto& mi =
      art->signature.Get(FeatureKind::kMomentInvariants).values;
  const auto& pm =
      art->signature.Get(FeatureKind::kPrincipalMoments).values;
  const double v53 = std::pow(art->voxels.SolidVolume(), 5.0 / 3.0);
  const double f1 = (pm[0] + pm[1] + pm[2]) / v53;
  const double f2 =
      (pm[0] * pm[1] + pm[1] * pm[2] + pm[0] * pm[2]) / (v53 * v53);
  const double f3 = pm[0] * pm[1] * pm[2] / (v53 * v53 * v53);
  EXPECT_NEAR(mi[0], f1, 1e-9);
  EXPECT_NEAR(mi[1], std::sqrt(f2), 1e-9);
  EXPECT_NEAR(mi[2], std::cbrt(f3), 1e-9);
}

TEST(ExtractorsTest, GeometricParamsSemantics) {
  auto mesh = FamilyMesh(10, 5);  // washer
  ASSERT_TRUE(mesh.ok());
  auto art = ExtractFeatures(*mesh, FastOptions());
  ASSERT_TRUE(art.ok());
  const auto& gp = art->signature.Get(FeatureKind::kGeometricParams).values;
  EXPECT_GT(gp[0], 0.0);                   // aspect 1
  EXPECT_GT(gp[1], 0.0);                   // aspect 2
  EXPECT_GT(gp[2], 14.0);                  // S^1.5/V > sphere's ~14.9 - eps
  EXPECT_NEAR(gp[3], art->normalization.scale_factor, 1e-12);
  EXPECT_NEAR(gp[4], art->normalization.original_volume, 1e-12);
}

TEST(ExtractorsTest, PoseInvarianceOfSignature) {
  // The same part, randomly re-posed, must give nearly identical moment
  // invariants and principal moments.
  Rng build_rng(77);
  const SolidPtr base = StandardPartFamilies()[11].build(&build_rng);
  auto mesh_a = MeshSolid(*base, {.resolution = 48});
  ASSERT_TRUE(mesh_a.ok());
  Rng pose_rng(99);
  const SolidPtr posed = RandomlyPosed(base, &pose_rng);
  auto mesh_b = MeshSolid(*posed, {.resolution = 48});
  ASSERT_TRUE(mesh_b.ok());

  ExtractionOptions opt;
  opt.voxelization.resolution = 32;
  auto sig_a = ExtractSignature(*mesh_a, opt);
  auto sig_b = ExtractSignature(*mesh_b, opt);
  ASSERT_TRUE(sig_a.ok() && sig_b.ok());

  for (FeatureKind kind : {FeatureKind::kMomentInvariants,
                           FeatureKind::kPrincipalMoments}) {
    const auto& va = sig_a->Get(kind).values;
    const auto& vb = sig_b->Get(kind).values;
    const double d = WeightedEuclidean(va, vb, {});
    double scale = 0.0;
    for (double x : va) scale += x * x;
    EXPECT_LT(d, 0.08 * std::sqrt(scale) + 0.01) << FeatureKindName(kind);
  }
}

TEST(ExtractorsTest, DiscriminatesDifferentFamilies) {
  // A tube and a plate should be far apart in principal-moment space
  // relative to two instances of the same family.
  auto tube_a = FamilyMesh(7, 11);
  auto tube_b = FamilyMesh(7, 12);
  auto plate = FamilyMesh(3, 13);
  ASSERT_TRUE(tube_a.ok() && tube_b.ok() && plate.ok());
  ExtractionOptions opt = FastOptions();
  auto sa = ExtractSignature(*tube_a, opt);
  auto sb = ExtractSignature(*tube_b, opt);
  auto sp = ExtractSignature(*plate, opt);
  ASSERT_TRUE(sa.ok() && sb.ok() && sp.ok());
  const auto& a = sa->Get(FeatureKind::kPrincipalMoments).values;
  const auto& b = sb->Get(FeatureKind::kPrincipalMoments).values;
  const auto& p = sp->Get(FeatureKind::kPrincipalMoments).values;
  EXPECT_LT(WeightedEuclidean(a, b, {}), WeightedEuclidean(a, p, {}));
}

TEST(ExtractorsTest, SpectralFeatureReflectsTopology) {
  // A washer (loop topology) vs a dumbbell (path topology) produce
  // different spectral signatures.
  auto washer = FamilyMesh(10, 21);
  auto dumbbell = FamilyMesh(24, 22);
  ASSERT_TRUE(washer.ok() && dumbbell.ok());
  ExtractionOptions opt;
  opt.voxelization.resolution = 32;
  auto sw = ExtractSignature(*washer, opt);
  auto sd = ExtractSignature(*dumbbell, opt);
  ASSERT_TRUE(sw.ok() && sd.ok());
  const double d = WeightedEuclidean(sw->Get(FeatureKind::kSpectral).values,
                                     sd->Get(FeatureKind::kSpectral).values,
                                     {});
  EXPECT_GT(d, 0.5);
}

TEST(ExtractorsTest, ExactMeshMomentsOptionAgreesWithVoxel) {
  auto mesh = FamilyMesh(2, 31);
  ASSERT_TRUE(mesh.ok());
  ExtractionOptions voxel_opt = FastOptions();
  voxel_opt.voxelization.resolution = 48;
  ExtractionOptions exact_opt = voxel_opt;
  exact_opt.voxel_moments = false;
  auto sv = ExtractSignature(*mesh, voxel_opt);
  auto se = ExtractSignature(*mesh, exact_opt);
  ASSERT_TRUE(sv.ok() && se.ok());
  const auto& pv = sv->Get(FeatureKind::kPrincipalMoments).values;
  const auto& pe = se->Get(FeatureKind::kPrincipalMoments).values;
  // The voxel model conservatively includes the whole surface band, so its
  // moments are systematically slightly larger than the exact integrals.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(pv[i], pe[i] * 0.95) << "component " << i;
    EXPECT_LE(pv[i], pe[i] * 1.30) << "component " << i;
  }
}

/// The paper's four spaces plus the D2 shape distribution.
std::shared_ptr<const FeatureSpaceRegistry> CanonicalPlusD2() {
  auto registry = std::make_shared<FeatureSpaceRegistry>();
  DESS_CHECK(registry->Register(MakeD2SpaceDef()).ok());
  return registry;
}

TEST(ExtractorsTest, SpacesDeclareTheDeepestStageTheyRead) {
  const auto registry = CanonicalPlusD2();
  EXPECT_EQ(registry->space(0).needs, PipelineStage::kVoxels);  // moments
  EXPECT_EQ(registry->space(1).needs, PipelineStage::kNormalized);
  EXPECT_EQ(registry->space(2).needs, PipelineStage::kVoxels);  // moments
  EXPECT_EQ(registry->space(3).needs, PipelineStage::kSkeleton);
  EXPECT_EQ(registry->space(4).needs, PipelineStage::kNormalized);  // D2
  EXPECT_EQ(FeatureSpaceDef{}.needs, PipelineStage::kSkeleton);
}

TEST(ExtractorsTest, MinimalExtractionMatchesFullExtraction) {
  // Each space alone, then the paper's multi-step plan (moment invariants,
  // then geometric parameters): only the selected slots are filled, each
  // bit-identical to a full extraction's, and the pipeline stops at the
  // deepest stage the selection needs.
  const auto registry = CanonicalPlusD2();
  const std::vector<std::vector<int>> selections = {{0}, {1}, {2}, {3},
                                                    {4}, {0, 1}};
  for (int resolution : {24, 32}) {
    ExtractionOptions opt;
    opt.voxelization.resolution = resolution;
    opt.registry = registry;
    for (int family : {0, 7, 10}) {
      auto mesh = FamilyMesh(family, 40 + family);
      ASSERT_TRUE(mesh.ok());
      auto full = ExtractFeatures(*mesh, opt);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      for (const std::vector<int>& spaces : selections) {
        SCOPED_TRACE(::testing::Message()
                     << "resolution " << resolution << " family " << family
                     << " first space " << spaces[0]);
        auto art = ExtractFeatures(*mesh, opt, spaces);
        ASSERT_TRUE(art.ok()) << art.status().ToString();
        ASSERT_EQ(art->signature.NumSpaces(), registry->size());
        PipelineStage depth = PipelineStage::kNormalized;
        for (int ordinal = 0; ordinal < registry->size(); ++ordinal) {
          const FeatureVector& slot = art->signature.At(ordinal);
          EXPECT_EQ(slot.space, registry->id(ordinal));
          if (std::find(spaces.begin(), spaces.end(), ordinal) ==
              spaces.end()) {
            EXPECT_EQ(slot.dim(), 0) << registry->id(ordinal);
            continue;
          }
          depth = std::max(depth, registry->space(ordinal).needs);
          EXPECT_EQ(slot.values, full->signature.At(ordinal).values)
              << registry->id(ordinal);
        }
        EXPECT_EQ(art->voxels.IsEmpty(), depth < PipelineStage::kVoxels);
        EXPECT_EQ(art->skeleton.IsEmpty(), depth < PipelineStage::kSkeleton);
        EXPECT_EQ(art->graph.NumNodes() == 0,
                  depth < PipelineStage::kSkeleton);
      }
    }
  }
}

TEST(ExtractorsTest, UndeclaredDependencyGetsEveryArtifact) {
  // A registered space that does not declare what it reads runs after the
  // whole pipeline, even when it is the only space extracted.
  auto registry = std::make_shared<FeatureSpaceRegistry>();
  FeatureSpaceDef def;
  def.id = "artifact_sizes";
  def.dim = 3;
  def.extractor = [](const ExtractionArtifacts& art) -> Result<FeatureVector> {
    FeatureVector fv;
    fv.values = {static_cast<double>(art.voxels.CountSet()),
                 static_cast<double>(art.skeleton.CountSet()),
                 static_cast<double>(art.graph.NumNodes())};
    return fv;
  };
  auto ordinal = registry->Register(std::move(def));
  ASSERT_TRUE(ordinal.ok());
  auto mesh = FamilyMesh(7, 2);
  ASSERT_TRUE(mesh.ok());
  ExtractionOptions opt = FastOptions();
  opt.registry = registry;
  auto only = ExtractFeatures(*mesh, opt, {*ordinal});
  auto full = ExtractFeatures(*mesh, opt);
  ASSERT_TRUE(only.ok() && full.ok());
  const std::vector<double>& sizes = only->signature.At(*ordinal).values;
  ASSERT_EQ(sizes.size(), 3u);
  for (double size : sizes) EXPECT_GT(size, 0.0);
  EXPECT_EQ(sizes, full->signature.At(*ordinal).values);
}

TEST(ExtractorsTest, MinimalExtractionRejectsBadOrdinalsAndExpiredDeadlines) {
  auto mesh = FamilyMesh(0, 1);
  ASSERT_TRUE(mesh.ok());
  auto out_of_range = ExtractFeatures(*mesh, FastOptions(), {kNumFeatureKinds});
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  auto expired = ExtractFeatures(
      *mesh, FastOptions(), {0},
      std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.status().message().find("normalize"), std::string::npos)
      << expired.status().ToString();
}

}  // namespace
}  // namespace dess
