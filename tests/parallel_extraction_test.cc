// Determinism contract of the parallel extraction hot path: voxelization,
// interior fill, thinning, and the end-to-end signature must be
// bit-identical for every thread count (the slab decomposition and serial
// recheck order guarantee it; these tests pin the guarantee).

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/features/extractors.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "src/skeleton/thinning.h"
#include "src/voxel/voxelizer.h"

namespace dess {
namespace {

// Part families with distinct topology: 0 (block-like), 4 (flange), 7.
constexpr int kFamilies[] = {0, 4, 7};
constexpr int kResolutions[] = {16, 32, 64};
constexpr int kThreadCounts[] = {2, 8};

Result<TriMesh> FamilyMesh(int family, int mesh_resolution = 32) {
  Rng rng(1000 + family);
  return MeshSolid(*StandardPartFamilies()[family].build(&rng),
                   {.resolution = mesh_resolution});
}

TEST(ParallelExtractionTest, VoxelizeFillThinBitIdenticalAcrossThreadCounts) {
  // The voxelizer splits z-slabs only when its cost model (120 ns a
  // triangle) gives each worker 2 ms, which no mesh at marching-cubes
  // resolution 32 reaches. Family 0 meshed at 64 has 63,768 triangles:
  // two slabs on a 2-thread pool and three on an 8-thread pool, on a host
  // with four or more cores.
  struct Case {
    int family, mesh_resolution;
  };
  constexpr Case kCases[] = {{0, 32}, {4, 32}, {7, 32}, {0, 64}};
  for (const auto [family, mesh_resolution] : kCases) {
    auto mesh = FamilyMesh(family, mesh_resolution);
    ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
    for (const int resolution : kResolutions) {
      // Serial reference for each stage.
      VoxelizationOptions surface_opt;
      surface_opt.resolution = resolution;
      surface_opt.fill_interior = false;
      auto serial_surface = VoxelizeMesh(*mesh, surface_opt);
      ASSERT_TRUE(serial_surface.ok()) << serial_surface.status().ToString();
      VoxelGrid serial_filled = *serial_surface;
      FillInterior(&serial_filled);
      const VoxelGrid serial_skeleton = ThinToSkeleton(serial_filled);

      for (const int threads : kThreadCounts) {
        SCOPED_TRACE("family=" + std::to_string(family) +
                     " mesh_res=" + std::to_string(mesh_resolution) +
                     " res=" + std::to_string(resolution) +
                     " threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        VoxelizationOptions parallel_opt = surface_opt;
        parallel_opt.pool = &pool;
        auto parallel_surface = VoxelizeMesh(*mesh, parallel_opt);
        ASSERT_TRUE(parallel_surface.ok())
            << parallel_surface.status().ToString();
        EXPECT_EQ(parallel_surface->raw(), serial_surface->raw());

        VoxelGrid parallel_filled = *parallel_surface;
        FillInterior(&parallel_filled);
        EXPECT_EQ(parallel_filled.raw(), serial_filled.raw());

        ThinningOptions thin_opt;
        thin_opt.pool = &pool;
        const VoxelGrid parallel_skeleton =
            ThinToSkeleton(parallel_filled, thin_opt);
        EXPECT_EQ(parallel_skeleton.raw(), serial_skeleton.raw());
      }
    }
  }

  // Thinning fans out only when its border set clears the amortization
  // floor of RecommendedWorkers, which none of the grids above does. All
  // 405k voxels of a 450x450x2 plate are border voxels, enough for a
  // two-part filter in the first subiteration on any host with two idle
  // cores; two iterations run it through a dozen subiterations.
  VoxelGrid plate(452, 452, 4, {0, 0, 0}, 1.0);
  for (int k = 1; k <= 2; ++k)
    for (int j = 1; j <= 450; ++j)
      for (int i = 1; i <= 450; ++i) plate.Set(i, j, k, true);
  ThinningOptions plate_opt;
  plate_opt.max_iterations = 2;
  const VoxelGrid serial_plate = ThinToSkeleton(plate, plate_opt);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("plate threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    plate_opt.pool = &pool;
    EXPECT_EQ(ThinToSkeleton(plate, plate_opt).raw(), serial_plate.raw());
  }
}

TEST(ParallelExtractionTest, VoxelizeSolidBitIdenticalAcrossThreadCounts) {
  Rng rng(77);
  const SolidPtr solid = StandardPartFamilies()[2].build(&rng);
  VoxelizationOptions opt;
  opt.resolution = 32;
  auto serial = VoxelizeSolid(*solid, opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    VoxelizationOptions parallel_opt = opt;
    parallel_opt.pool = &pool;
    auto parallel = VoxelizeSolid(*solid, parallel_opt);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->raw(), serial->raw());
  }
}

TEST(ParallelExtractionTest, ExtractSignatureMatchesSerialEndToEnd) {
  for (const int family : kFamilies) {
    auto mesh = FamilyMesh(family);
    ASSERT_TRUE(mesh.ok()) << mesh.status().ToString();
    ExtractionOptions serial_opt;
    auto serial = ExtractSignature(*mesh, serial_opt);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("family=" + std::to_string(family) +
                   " threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      ExtractionOptions parallel_opt;
      parallel_opt.pool = &pool;
      auto parallel = ExtractSignature(*mesh, parallel_opt);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      for (FeatureKind kind : AllFeatureKinds()) {
        // Exact equality: the parallel path must run the same arithmetic
        // in the same order, not merely approximate it.
        EXPECT_EQ(parallel->Get(kind).values, serial->Get(kind).values)
            << FeatureKindName(kind);
      }
    }
  }
}

}  // namespace
}  // namespace dess
