#ifndef DESS_VOXEL_VOXELIZER_H_
#define DESS_VOXEL_VOXELIZER_H_

#include "src/common/result.h"
#include "src/geom/trimesh.h"
#include "src/modelgen/csg.h"
#include "src/voxel/voxel_grid.h"

namespace dess {

class ThreadPool;

/// Voxelization parameters (Section 3.2 of the paper).
struct VoxelizationOptions {
  /// Number of voxels along the longest bounding-box axis (the paper's N).
  int resolution = 32;
  /// Extra cells added on every side of the mesh's bounding box. They do
  /// not keep the solid off the grid boundary: the triangle/box test is
  /// closed (box half-widths carry a small epsilon), and the bounding box's
  /// three min faces, like the max face of its longest axis, lie exactly on
  /// cell faces, so a mesh vertex there also marks the margin cell beyond.
  /// The standard dataset puts about 4 solid voxels per shape on the grid
  /// shell, at every resolution. Consumers must read out-of-bounds cells as
  /// empty, as thinning and component labelling do, not assume padding.
  int boundary_margin = 1;
  /// If true, interior voxels are filled (solid voxelization) via an
  /// exterior flood fill; otherwise only surface voxels are set.
  bool fill_interior = true;
  /// Optional worker pool for intra-shape parallelism: the grid is split
  /// into disjoint z-slabs, one per worker, so writes never race and the
  /// result is bit-identical to the serial path. Null means serial.
  /// Non-owning; the pool must outlive the call.
  ThreadPool* pool = nullptr;
};

/// Voxelizes a closed triangle mesh: surface voxels are found with exact
/// triangle/box overlap tests (separating-axis theorem), the interior is
/// filled by flood-filling the exterior from the grid boundary and
/// complementing. Per-triangle SAT invariants (edges, normal, cross-product
/// axes with their box radii and projection intervals) are precomputed once
/// so the inner voxel loop only evaluates box-center dot products. Returns
/// InvalidArgument for an empty mesh or non-positive resolution.
Result<VoxelGrid> VoxelizeMesh(const TriMesh& mesh,
                               const VoxelizationOptions& options = {});

/// Voxelizes an implicit solid by sampling voxel centers. Used as ground
/// truth in tests and by the ablation benchmarks.
Result<VoxelGrid> VoxelizeSolid(const Solid& solid,
                                const VoxelizationOptions& options = {});

/// Sets every empty voxel not 6-connected to the grid boundary (frontier
/// BFS over the exterior, then complement). Called by VoxelizeMesh when
/// `fill_interior` is set; exposed for stage-level tests and benches.
void FillInterior(VoxelGrid* grid);

/// Exact triangle/axis-aligned-box overlap test (Akenine-Möller SAT).
/// Exposed for direct unit testing.
bool TriangleBoxOverlap(const Vec3& box_center, const Vec3& box_half,
                        const Vec3& a, const Vec3& b, const Vec3& c);

}  // namespace dess

#endif  // DESS_VOXEL_VOXELIZER_H_
