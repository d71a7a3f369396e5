#include <gtest/gtest.h>

#include "src/modelgen/csg.h"
#include "src/skeleton/skeleton_analysis.h"
#include "src/skeleton/thinning.h"
#include "src/voxel/morphology.h"
#include "src/voxel/voxelizer.h"

namespace dess {
namespace {

VoxelGrid SolidBlock(int nx, int ny, int nz, int pad = 2) {
  VoxelGrid g(nx + 2 * pad, ny + 2 * pad, nz + 2 * pad, {0, 0, 0}, 1.0);
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) g.Set(i + pad, j + pad, k + pad, true);
  return g;
}

TEST(SimplePointTest, IsolatedVoxelNotSimple) {
  VoxelGrid g(5, 5, 5, {0, 0, 0}, 1.0);
  g.Set(2, 2, 2, true);
  EXPECT_FALSE(IsSimplePoint(g, 2, 2, 2));
}

TEST(SimplePointTest, EndOfLineIsSimple) {
  VoxelGrid g(7, 7, 7, {0, 0, 0}, 1.0);
  for (int i = 1; i <= 5; ++i) g.Set(i, 3, 3, true);
  // Removing an endpoint keeps one component and one background.
  EXPECT_TRUE(IsSimplePoint(g, 1, 3, 3));
  EXPECT_TRUE(IsSimplePoint(g, 5, 3, 3));
}

TEST(SimplePointTest, MiddleOfLineNotSimple) {
  VoxelGrid g(7, 7, 7, {0, 0, 0}, 1.0);
  for (int i = 1; i <= 5; ++i) g.Set(i, 3, 3, true);
  // Removing a middle voxel would split the line.
  EXPECT_FALSE(IsSimplePoint(g, 3, 3, 3));
}

TEST(SimplePointTest, BackgroundVoxelNotSimple) {
  VoxelGrid g(3, 3, 3, {0, 0, 0}, 1.0);
  EXPECT_FALSE(IsSimplePoint(g, 1, 1, 1));
}

TEST(ThinningTest, BlockThinsToThinSet) {
  const VoxelGrid solid = SolidBlock(9, 9, 9);
  const VoxelGrid skel = ThinToSkeleton(solid);
  EXPECT_LT(skel.CountSet(), solid.CountSet() / 10);
  EXPECT_GT(skel.CountSet(), 0u);
}

TEST(ThinningTest, PreservesConnectivity) {
  const VoxelGrid solid = SolidBlock(12, 6, 4);
  ASSERT_EQ(CountObjectComponents(solid), 1);
  const VoxelGrid skel = ThinToSkeleton(solid);
  EXPECT_EQ(CountObjectComponents(skel), 1);
}

TEST(ThinningTest, SkeletonIsSubsetOfSolid) {
  const VoxelGrid solid = SolidBlock(8, 8, 8);
  const VoxelGrid skel = ThinToSkeleton(solid);
  for (int k = 0; k < solid.nz(); ++k)
    for (int j = 0; j < solid.ny(); ++j)
      for (int i = 0; i < solid.nx(); ++i) {
        if (skel.Get(i, j, k)) {
          EXPECT_TRUE(solid.Get(i, j, k));
        }
      }
}

TEST(ThinningTest, WithoutEndpointPreservationBlockCollapsesToPoint) {
  const VoxelGrid solid = SolidBlock(7, 7, 7);
  ThinningOptions opt;
  opt.preserve_endpoints = false;
  const VoxelGrid skel = ThinToSkeleton(solid, opt);
  EXPECT_EQ(skel.CountSet(), 1u);
}

TEST(ThinningTest, ElongatedBlockYieldsCurveAlongAxis) {
  // A long thin bar should reduce to (roughly) its medial line.
  VoxelGrid solid = SolidBlock(20, 3, 3);
  const VoxelGrid skel = ThinToSkeleton(solid);
  const SkeletonAnalysis a = AnalyzeSkeleton(skel);
  EXPECT_EQ(a.num_components, 1);
  EXPECT_EQ(a.num_ends, 2);       // a single open curve
  EXPECT_EQ(a.num_junctions, 0);
  EXPECT_GE(skel.CountSet(), 15u);
}

TEST(ThinningTest, TorusSkeletonKeepsLoop) {
  auto solid = VoxelizeSolid(*MakeTorus(1.0, 0.28), {.resolution = 28});
  ASSERT_TRUE(solid.ok());
  ASSERT_EQ(CountBackgroundComponents(*solid), 1);
  const VoxelGrid skel = ThinToSkeleton(*solid);
  const SkeletonAnalysis a = AnalyzeSkeleton(skel);
  EXPECT_EQ(a.num_components, 1);
  // Topology preservation: the loop must survive (no endpoints on a pure
  // cycle, at least one independent loop).
  EXPECT_GE(a.num_loops, 1);
  EXPECT_EQ(a.num_ends, 0);
}

TEST(ThinningTest, TwoComponentsStayTwo) {
  VoxelGrid g(20, 8, 8, {0, 0, 0}, 1.0);
  for (int k = 2; k < 6; ++k)
    for (int j = 2; j < 6; ++j) {
      for (int i = 2; i < 6; ++i) g.Set(i, j, k, true);
      for (int i = 12; i < 16; ++i) g.Set(i, j, k, true);
    }
  ASSERT_EQ(CountObjectComponents(g), 2);
  const VoxelGrid skel = ThinToSkeleton(g);
  EXPECT_EQ(CountObjectComponents(skel), 2);
}

TEST(ThinningTest, EmptyGridNoCrash) {
  VoxelGrid g(5, 5, 5, {0, 0, 0}, 1.0);
  const VoxelGrid skel = ThinToSkeleton(g);
  EXPECT_EQ(skel.CountSet(), 0u);
}

TEST(SkeletonAnalysisTest, DegreeCounting) {
  VoxelGrid g(7, 7, 7, {0, 0, 0}, 1.0);
  // A plus sign in the j=3,k=3 plane.
  for (int i = 1; i <= 5; ++i) g.Set(i, 3, 3, true);
  for (int j = 1; j <= 5; ++j) g.Set(3, j, 3, true);
  EXPECT_EQ(SkeletonDegree(g, 3, 3, 3), 4);
  EXPECT_EQ(SkeletonDegree(g, 1, 3, 3), 1);
  const SkeletonAnalysis a = AnalyzeSkeleton(g);
  EXPECT_EQ(a.num_ends, 4);
  // Diagonal (26-connected) adjacency makes the four voxels next to the
  // center degree-3 as well, so the junction cluster has five members.
  EXPECT_EQ(a.num_junctions, 5);
  EXPECT_EQ(a.num_components, 1);
}

TEST(SkeletonAnalysisTest, LoopCountOnSquareRing) {
  VoxelGrid g(9, 9, 3, {0, 0, 0}, 1.0);
  for (int i = 2; i <= 6; ++i) {
    g.Set(i, 2, 1, true);
    g.Set(i, 6, 1, true);
    g.Set(2, i, 1, true);
    g.Set(6, i, 1, true);
  }
  const SkeletonAnalysis a = AnalyzeSkeleton(g);
  EXPECT_EQ(a.num_components, 1);
  EXPECT_EQ(a.num_ends, 0);
  EXPECT_GE(a.num_loops, 1);
}

}  // namespace
}  // namespace dess
