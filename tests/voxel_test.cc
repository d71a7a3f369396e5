#include <gtest/gtest.h>

#include <cmath>

#include "src/geom/transforms.h"
#include "src/modelgen/csg.h"
#include "src/modelgen/marching_cubes.h"
#include "src/voxel/morphology.h"
#include "src/voxel/voxelizer.h"

namespace dess {
namespace {

TEST(VoxelGridTest, IndexingAndAccess) {
  VoxelGrid g(4, 5, 6, {0, 0, 0}, 1.0);
  EXPECT_EQ(g.size(), 4u * 5u * 6u);
  EXPECT_EQ(g.CountSet(), 0u);
  g.Set(1, 2, 3, true);
  EXPECT_TRUE(g.Get(1, 2, 3));
  EXPECT_FALSE(g.Get(0, 0, 0));
  EXPECT_EQ(g.CountSet(), 1u);
  g.Set(1, 2, 3, false);
  EXPECT_EQ(g.CountSet(), 0u);
}

TEST(VoxelGridTest, ClampedReadsOutOfBoundsAsEmpty) {
  VoxelGrid g(2, 2, 2, {0, 0, 0}, 1.0);
  g.Set(0, 0, 0, true);
  EXPECT_FALSE(g.GetClamped(-1, 0, 0));
  EXPECT_FALSE(g.GetClamped(0, 0, 2));
  EXPECT_TRUE(g.GetClamped(0, 0, 0));
}

TEST(VoxelGridTest, WorldVoxelRoundTrip) {
  VoxelGrid g(10, 10, 10, {-1, -1, -1}, 0.25);
  const Vec3 center = g.VoxelCenter(3, 4, 5);
  int i, j, k;
  g.WorldToVoxel(center, &i, &j, &k);
  EXPECT_EQ(i, 3);
  EXPECT_EQ(j, 4);
  EXPECT_EQ(k, 5);
}

TEST(VoxelGridTest, SolidVolume) {
  VoxelGrid g(2, 2, 2, {0, 0, 0}, 0.5);
  g.Set(0, 0, 0, true);
  g.Set(1, 1, 1, true);
  EXPECT_DOUBLE_EQ(g.SolidVolume(), 2 * 0.125);
}

TEST(TriangleBoxOverlapTest, TriangleInsideBox) {
  EXPECT_TRUE(TriangleBoxOverlap({0, 0, 0}, {1, 1, 1}, {0.1, 0.1, 0.1},
                                 {0.2, 0.1, 0.1}, {0.1, 0.2, 0.1}));
}

TEST(TriangleBoxOverlapTest, TriangleFarAway) {
  EXPECT_FALSE(TriangleBoxOverlap({0, 0, 0}, {1, 1, 1}, {5, 5, 5},
                                  {6, 5, 5}, {5, 6, 5}));
}

TEST(TriangleBoxOverlapTest, LargeTriangleSpanningBox) {
  EXPECT_TRUE(TriangleBoxOverlap({0, 0, 0}, {0.5, 0.5, 0.5}, {-10, -10, 0},
                                 {10, -10, 0}, {0, 20, 0}));
}

TEST(TriangleBoxOverlapTest, PlaneSeparation) {
  // Triangle in plane z = 2, box reaching z = 1.
  EXPECT_FALSE(TriangleBoxOverlap({0, 0, 0}, {1, 1, 1}, {-5, -5, 2},
                                  {5, -5, 2}, {0, 5, 2}));
}

TEST(TriangleBoxOverlapTest, EdgeCrossSeparation) {
  // Diagonal thin triangle near a corner, separated only by a cross axis.
  EXPECT_FALSE(TriangleBoxOverlap({0, 0, 0}, {1, 1, 1}, {2.0, 0.5, 1.5},
                                  {0.5, 2.0, 1.5}, {2.0, 2.0, 1.6}));
}

TEST(VoxelizeMeshTest, RejectsEmptyMesh) {
  EXPECT_EQ(VoxelizeMesh(TriMesh()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(VoxelizeMeshTest, SphereVolumeApproximatesTruth) {
  auto mesh = MeshSolid(*MakeSphere(1.0), {.resolution = 48});
  ASSERT_TRUE(mesh.ok());
  auto grid = VoxelizeMesh(*mesh, {.resolution = 32});
  ASSERT_TRUE(grid.ok());
  const double v = grid->SolidVolume();
  const double exact = 4.0 / 3.0 * M_PI;
  EXPECT_NEAR(v, exact, 0.15 * exact);
}

TEST(VoxelizeMeshTest, MatchesImplicitVoxelization) {
  const SolidPtr solid = MakeBox({0.5, 0.3, 0.2});
  auto mesh = MeshSolid(*solid, {.resolution = 48});
  ASSERT_TRUE(mesh.ok());
  auto from_mesh = VoxelizeMesh(*mesh, {.resolution = 32});
  auto from_solid = VoxelizeSolid(*solid, {.resolution = 32});
  ASSERT_TRUE(from_mesh.ok());
  ASSERT_TRUE(from_solid.ok());
  // Mesh voxelization conservatively marks the whole surface band, so it
  // is a superset: larger, but within one band of the center-sample truth.
  const double a = from_mesh->SolidVolume();
  const double b = from_solid->SolidVolume();
  EXPECT_GE(a, b * 0.98);
  EXPECT_LE(a, b * 1.45);
}

TEST(VoxelizeMeshTest, InteriorFillMakesSolid) {
  auto mesh = MeshSolid(*MakeSphere(1.0), {.resolution = 40});
  ASSERT_TRUE(mesh.ok());
  VoxelizationOptions surface_only;
  surface_only.resolution = 24;
  surface_only.fill_interior = false;
  VoxelizationOptions filled = surface_only;
  filled.fill_interior = true;
  auto shell = VoxelizeMesh(*mesh, surface_only);
  auto solid = VoxelizeMesh(*mesh, filled);
  ASSERT_TRUE(shell.ok());
  ASSERT_TRUE(solid.ok());
  EXPECT_GT(solid->CountSet(), shell->CountSet() * 3 / 2);
  // Center voxel is inside for the filled version only.
  int i, j, k;
  solid->WorldToVoxel({0, 0, 0}, &i, &j, &k);
  EXPECT_TRUE(solid->Get(i, j, k));
  EXPECT_FALSE(shell->Get(i, j, k));
}

TEST(VoxelizeMeshTest, HollowTubeKeepsBoreOpen) {
  const SolidPtr tube =
      MakeDifference(MakeCylinder(1.0, 1.0), MakeCylinder(0.5, 1.5));
  auto mesh = MeshSolid(*tube, {.resolution = 48});
  ASSERT_TRUE(mesh.ok());
  auto grid = VoxelizeMesh(*mesh, {.resolution = 32});
  ASSERT_TRUE(grid.ok());
  // The bore axis must stay empty (it connects to the exterior).
  int i, j, k;
  grid->WorldToVoxel({0, 0, 0}, &i, &j, &k);
  EXPECT_FALSE(grid->Get(i, j, k));
  // Material ring is filled.
  grid->WorldToVoxel({0.75, 0, 0}, &i, &j, &k);
  EXPECT_TRUE(grid->Get(i, j, k));
}

TEST(VoxelizeSolidTest, BoundaryMarginKeepsBorderEmpty) {
  auto grid = VoxelizeSolid(*MakeSphere(1.0),
                            {.resolution = 16, .boundary_margin = 2});
  ASSERT_TRUE(grid.ok());
  for (int k = 0; k < grid->nz(); ++k) {
    for (int j = 0; j < grid->ny(); ++j) {
      EXPECT_FALSE(grid->Get(0, j, k));
      EXPECT_FALSE(grid->Get(grid->nx() - 1, j, k));
    }
  }
}

TEST(MorphologyTest, DilateErodeInverse) {
  VoxelGrid g(10, 10, 10, {0, 0, 0}, 1.0);
  for (int k = 3; k <= 6; ++k)
    for (int j = 3; j <= 6; ++j)
      for (int i = 3; i <= 6; ++i) g.Set(i, j, k, true);
  const VoxelGrid dilated = Dilate(g);
  EXPECT_GT(dilated.CountSet(), g.CountSet());
  const VoxelGrid closed = Erode(dilated);
  // For a solid block, erode(dilate(x)) == x.
  EXPECT_EQ(closed.raw(), g.raw());
}

TEST(MorphologyTest, ErodeRemovesSurface) {
  VoxelGrid g(8, 8, 8, {0, 0, 0}, 1.0);
  for (int k = 2; k <= 5; ++k)
    for (int j = 2; j <= 5; ++j)
      for (int i = 2; i <= 5; ++i) g.Set(i, j, k, true);
  const VoxelGrid e = Erode(g);
  EXPECT_EQ(e.CountSet(), 8u);  // 4^3 -> 2^3
}

TEST(MorphologyTest, ComponentLabeling) {
  VoxelGrid g(10, 10, 10, {0, 0, 0}, 1.0);
  g.Set(1, 1, 1, true);
  g.Set(8, 8, 8, true);
  g.Set(8, 8, 7, true);  // 6-adjacent to previous
  std::vector<int> labels;
  EXPECT_EQ(LabelComponents(g, Connectivity::k6, &labels), 2);
  EXPECT_EQ(CountObjectComponents(g), 2);
}

TEST(MorphologyTest, DiagonalConnectivityDiffers) {
  VoxelGrid g(4, 4, 4, {0, 0, 0}, 1.0);
  g.Set(0, 0, 0, true);
  g.Set(1, 1, 1, true);  // diagonal neighbor
  std::vector<int> labels;
  EXPECT_EQ(LabelComponents(g, Connectivity::k6, &labels), 2);
  EXPECT_EQ(LabelComponents(g, Connectivity::k26, &labels), 1);
}

TEST(MorphologyTest, BackgroundComponentsDetectCavity) {
  // 5^3 block with a hollow center voxel -> 2 background components.
  VoxelGrid g(7, 7, 7, {0, 0, 0}, 1.0);
  for (int k = 1; k <= 5; ++k)
    for (int j = 1; j <= 5; ++j)
      for (int i = 1; i <= 5; ++i) g.Set(i, j, k, true);
  EXPECT_EQ(CountBackgroundComponents(g), 1);
  g.Set(3, 3, 3, false);
  EXPECT_EQ(CountBackgroundComponents(g), 2);
}

TEST(MorphologyTest, KeepLargestComponent) {
  VoxelGrid g(10, 10, 10, {0, 0, 0}, 1.0);
  // Big blob.
  for (int i = 0; i < 4; ++i) g.Set(i, 0, 0, true);
  // Small blob.
  g.Set(9, 9, 9, true);
  const VoxelGrid kept = KeepLargestComponent(g);
  EXPECT_EQ(kept.CountSet(), 4u);
  EXPECT_FALSE(kept.Get(9, 9, 9));

  // Two equal-size components: the first in (k, j, i) scan order wins,
  // although the other one starts at a smaller i.
  VoxelGrid tie(6, 6, 6, {0, 0, 0}, 1.0);
  for (int i = 3; i < 6; ++i) tie.Set(i, 0, 0, true);
  for (int i = 0; i < 3; ++i) tie.Set(i, 4, 0, true);
  const VoxelGrid tie_kept = KeepLargestComponent(tie);
  EXPECT_EQ(tie_kept.CountSet(), 3u);
  EXPECT_TRUE(tie_kept.Get(3, 0, 0));
  EXPECT_FALSE(tie_kept.Get(0, 4, 0));

  // A component lying along the grid shell (every voxel on the boundary,
  // one on a corner) beats an interior one.
  VoxelGrid shell(5, 5, 5, {0, 0, 0}, 1.0);
  for (int j = 0; j < 5; ++j) shell.Set(4, j, 4, true);
  shell.Set(2, 2, 2, true);
  const VoxelGrid shell_kept = KeepLargestComponent(shell);
  EXPECT_EQ(shell_kept.CountSet(), 5u);
  EXPECT_TRUE(shell_kept.Get(4, 4, 4));
  EXPECT_FALSE(shell_kept.Get(2, 2, 2));

  // Two 3-voxel bars linked only through a vertex-diagonal step form one
  // 26-connected component of 6, which beats a separate 5-voxel bar.
  VoxelGrid diag(8, 8, 8, {0, 0, 0}, 1.0);
  for (int i = 1; i <= 3; ++i) diag.Set(i, 1, 1, true);
  for (int i = 4; i <= 6; ++i) diag.Set(i, 2, 2, true);  // (3,1,1)~(4,2,2)
  for (int i = 1; i <= 5; ++i) diag.Set(i, 6, 6, true);
  const VoxelGrid diag_kept = KeepLargestComponent(diag);
  EXPECT_EQ(diag_kept.CountSet(), 6u);
  EXPECT_TRUE(diag_kept.Get(6, 2, 2));
  EXPECT_FALSE(diag_kept.Get(1, 6, 6));

  // An empty grid stays empty.
  const VoxelGrid empty(4, 4, 4, {0, 0, 0}, 1.0);
  EXPECT_EQ(KeepLargestComponent(empty).raw(), empty.raw());
}

TEST(MorphologyTest, Connectivity18Neighbors) {
  VoxelGrid g(3, 3, 3, {0, 0, 0}, 1.0);
  g.Set(1, 1, 1, true);
  const VoxelGrid d = Dilate(g, Connectivity::k18);
  // 18-neighborhood + center = 19 voxels.
  EXPECT_EQ(d.CountSet(), 19u);
  const VoxelGrid d26 = Dilate(g, Connectivity::k26);
  EXPECT_EQ(d26.CountSet(), 27u);
}

}  // namespace
}  // namespace dess
