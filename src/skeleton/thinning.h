#ifndef DESS_SKELETON_THINNING_H_
#define DESS_SKELETON_THINNING_H_

#include "src/voxel/voxel_grid.h"

namespace dess {

class ThreadPool;

/// Options for the thinning-based skeletonization of Section 3.3.
struct ThinningOptions {
  /// Maximum peeling iterations (each is six directional subiterations);
  /// thinning of an N^3 model converges in O(N) iterations, so the default
  /// is effectively "until convergence".
  int max_iterations = 1000;
  /// If true, curve endpoints (voxels with exactly one object neighbor) are
  /// never deleted, producing a curve skeleton suitable for skeletal-graph
  /// construction. If false, a connected blob thins to a single voxel.
  bool preserve_endpoints = true;
  /// Optional worker pool: when the border set is large enough to pay for
  /// the dispatch (see RecommendedWorkers), each directional subiteration
  /// filters contiguous parts of it in parallel; the parts' candidates are
  /// then joined in index order and deleted in the serial recheck order,
  /// so the skeleton is bit-identical to the sequential result. Null means
  /// serial. Non-owning; the pool must outlive the call.
  ThreadPool* pool = nullptr;
};

/// Curve-skeleton extraction by 6-subiteration directional thinning in the
/// style of Palagyi & Kuba: border voxels of the current direction are
/// deleted only if they are *simple* (deletion preserves both object
/// 26-topology and background 6-topology, checked via the Bertrand-
/// Malandain local characterization) and not protected endpoints.
///
/// Each subiteration visits only a border set (the object voxels with an
/// empty or out-of-bounds face neighbor), kept current as voxels are
/// deleted, not the whole grid. The candidates are tested against
/// the grid as it stood when the subiteration began, then re-checked and
/// deleted in (k, j, i) scan order, exactly as a full-grid scan would.
/// Voxels on the grid boundary are handled like any other: out-of-bounds
/// cells read as empty.
///
/// The result is a subset of the input voxels: thinning preserves topology
/// (component count, cavities, tunnels) but, as the paper notes, is not
/// exactly invariant to rotation of the underlying model.
VoxelGrid ThinToSkeleton(const VoxelGrid& solid,
                         const ThinningOptions& options = {});

/// True if deleting voxel (i,j,k) from `grid` preserves local topology
/// (the voxel is a "simple point"). Exposed for unit testing.
bool IsSimplePoint(const VoxelGrid& grid, int i, int j, int k);

}  // namespace dess

#endif  // DESS_SKELETON_THINNING_H_
