// Parity of the border-set thinning and the run-based component
// labelling against the algorithms they replaced. The reference
// implementations below are those, kept verbatim in behaviour: a thinning
// subiteration scans every voxel in (k, j, i) order, and labelling floods
// voxel by voxel over an offset vector with a bounds check per neighbor.
// The reference simple-point test shares no code with the library's: it
// follows the definition with a breadth-first search over cell
// coordinates. Skeletons, labels and largest components must match bit for
// bit, serially and on pools of every width.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/features/normalization.h"
#include "src/modelgen/dataset.h"
#include "src/skeleton/thinning.h"
#include "src/voxel/morphology.h"
#include "src/voxel/voxelizer.h"

namespace dess {
namespace {

// ---- Reference implementations -------------------------------------------

std::vector<std::array<int, 3>> ReferenceOffsets(Connectivity conn) {
  std::vector<std::array<int, 3>> offs;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        const int manhattan = std::abs(dx) + std::abs(dy) + std::abs(dz);
        if (manhattan == 0) continue;
        if (conn == Connectivity::k6 && manhattan != 1) continue;
        if (conn == Connectivity::k18 && manhattan > 2) continue;
        offs.push_back({dx, dy, dz});
      }
  return offs;
}

int ReferenceLabelComponents(const VoxelGrid& grid, Connectivity conn,
                             std::vector<int>* labels) {
  labels->assign(grid.size(), 0);
  const auto offs = ReferenceOffsets(conn);
  int next_label = 0;
  std::vector<std::array<int, 3>> stack;
  for (int k = 0; k < grid.nz(); ++k) {
    for (int j = 0; j < grid.ny(); ++j) {
      for (int i = 0; i < grid.nx(); ++i) {
        if (!grid.Get(i, j, k) || (*labels)[grid.Index(i, j, k)] != 0) {
          continue;
        }
        ++next_label;
        (*labels)[grid.Index(i, j, k)] = next_label;
        stack.push_back({i, j, k});
        while (!stack.empty()) {
          const auto [ci, cj, ck] = stack.back();
          stack.pop_back();
          for (const auto& d : offs) {
            const int ni = ci + d[0], nj = cj + d[1], nk = ck + d[2];
            if (!grid.InBounds(ni, nj, nk)) continue;
            const size_t idx = grid.Index(ni, nj, nk);
            if (!grid.Get(ni, nj, nk) || (*labels)[idx] != 0) continue;
            (*labels)[idx] = next_label;
            stack.push_back({ni, nj, nk});
          }
        }
      }
    }
  }
  return next_label;
}

VoxelGrid ReferenceKeepLargestComponent(const VoxelGrid& grid) {
  std::vector<int> labels;
  const int n = ReferenceLabelComponents(grid, Connectivity::k26, &labels);
  if (n <= 1) return grid;
  std::vector<size_t> counts(n + 1, 0);
  for (int l : labels) {
    if (l > 0) ++counts[l];
  }
  int best = 1;
  for (int l = 2; l <= n; ++l) {
    if (counts[l] > counts[best]) best = l;
  }
  VoxelGrid out = grid;
  auto& raw = out.mutable_raw();
  for (size_t idx = 0; idx < raw.size(); ++idx) {
    raw[idx] = labels[idx] == best ? 1 : 0;
  }
  return out;
}

// A voxel's 3x3x3 neighborhood as cell offsets in [-1, 1]^3.
using Offset = std::array<int, 3>;

int Manhattan(const Offset& o) {
  return std::abs(o[0]) + std::abs(o[1]) + std::abs(o[2]);
}

// Two cells are adjacent when no coordinate differs by more than one and
// they differ at all; 6-adjacent cells differ in one coordinate only.
bool Adjacent(const Offset& a, const Offset& b, bool six_adjacent) {
  int differing = 0;
  for (int axis = 0; axis < 3; ++axis) {
    const int diff = std::abs(a[axis] - b[axis]);
    if (diff > 1) return false;
    differing += diff;
  }
  return differing == 1 || (differing > 1 && !six_adjacent);
}

// Labels the first n `cells` by connected component with a breadth-first
// search over coordinates; returns the number of components.
int ReferenceComponents(const Offset* cells, int n, bool six_adjacent,
                        int* component) {
  std::fill(component, component + n, -1);
  int count = 0;
  int queue[26];
  for (int seed = 0; seed < n; ++seed) {
    if (component[seed] >= 0) continue;
    component[seed] = count;
    int tail = 0;
    queue[tail++] = seed;
    for (int head = 0; head < tail; ++head) {
      for (int t = 0; t < n; ++t) {
        if (component[t] < 0 &&
            Adjacent(cells[queue[head]], cells[t], six_adjacent)) {
          component[t] = count;
          queue[tail++] = t;
        }
      }
    }
    ++count;
  }
  return count;
}

// Simple-point test from first principles (Bertrand-Malandain): deleting
// object voxel (i,j,k) keeps the topology when its object 26-neighbors
// form one 26-component and the background cells of its 18-neighborhood
// form exactly one 6-component that holds a face neighbor. Out-of-bounds
// cells are background.
bool ReferenceSimple(const VoxelGrid& grid, int i, int j, int k) {
  if (!grid.GetClamped(i, j, k)) return false;
  Offset object[26], background[18];
  int num_object = 0, num_background = 0;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        const Offset o = {dx, dy, dz};
        if (Manhattan(o) == 0) continue;
        if (grid.GetClamped(i + dx, j + dy, k + dz)) {
          object[num_object++] = o;
        } else if (Manhattan(o) <= 2) {
          background[num_background++] = o;
        }
      }
  int component[26];
  if (ReferenceComponents(object, num_object, /*six_adjacent=*/false,
                          component) != 1) {
    return false;
  }
  const int count = ReferenceComponents(background, num_background,
                                        /*six_adjacent=*/true, component);
  bool holds_face[18] = {};
  for (int c = 0; c < num_background; ++c) {
    if (Manhattan(background[c]) == 1) holds_face[component[c]] = true;
  }
  return std::count(holds_face, holds_face + count, true) == 1;
}

bool ReferenceDeletable(const VoxelGrid& grid, int i, int j, int k,
                        bool preserve_endpoints) {
  int neighbors = 0;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx)
        if ((dx || dy || dz) && grid.GetClamped(i + dx, j + dy, k + dz))
          ++neighbors;
  if (preserve_endpoints && neighbors <= 1) return false;
  return ReferenceSimple(grid, i, j, k);
}

// Each directional subiteration scans the whole grid for d-border simple
// points against the frozen grid, then deletes them in scan order with a
// re-check against the mutated grid.
VoxelGrid ReferenceThin(const VoxelGrid& solid,
                        const ThinningOptions& options) {
  VoxelGrid grid = solid;
  const int dirs[6][3] = {{0, 0, 1},  {0, 0, -1}, {0, 1, 0},
                          {0, -1, 0}, {1, 0, 0},  {-1, 0, 0}};
  std::vector<std::array<int, 3>> candidates;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    size_t deleted = 0;
    for (const auto& d : dirs) {
      candidates.clear();
      for (int k = 0; k < grid.nz(); ++k)
        for (int j = 0; j < grid.ny(); ++j)
          for (int i = 0; i < grid.nx(); ++i) {
            if (!grid.Get(i, j, k)) continue;
            if (grid.GetClamped(i + d[0], j + d[1], k + d[2])) continue;
            if (ReferenceDeletable(grid, i, j, k, options.preserve_endpoints))
              candidates.push_back({i, j, k});
          }
      for (const auto& [i, j, k] : candidates) {
        if (!grid.Get(i, j, k)) continue;
        if (!ReferenceDeletable(grid, i, j, k, options.preserve_endpoints))
          continue;
        grid.Set(i, j, k, false);
        ++deleted;
      }
    }
    if (deleted == 0) break;
  }
  return grid;
}

// ---- Shared checks ----------------------------------------------------------

void ExpectLabelsMatch(const VoxelGrid& grid) {
  for (const Connectivity conn :
       {Connectivity::k6, Connectivity::k18, Connectivity::k26}) {
    SCOPED_TRACE("conn=" + std::to_string(static_cast<int>(conn)));
    std::vector<int> labels, reference;
    EXPECT_EQ(LabelComponents(grid, conn, &labels),
              ReferenceLabelComponents(grid, conn, &reference));
    EXPECT_EQ(labels, reference);
  }
}

// Thins `solid` serially and on every pool in `pools`, expecting each
// result to equal the full-scan reference.
void ExpectThinningMatches(const VoxelGrid& solid, ThinningOptions options,
                           const std::vector<ThreadPool*>& pools) {
  options.pool = nullptr;
  const VoxelGrid reference = ReferenceThin(solid, options);
  EXPECT_EQ(ThinToSkeleton(solid, options).raw(), reference.raw());
  for (ThreadPool* pool : pools) {
    SCOPED_TRACE("threads=" + std::to_string(pool->num_threads()));
    options.pool = pool;
    EXPECT_EQ(ThinToSkeleton(solid, options).raw(), reference.raw());
  }
}

VoxelGrid Block(int nx, int ny, int nz, int pad) {
  VoxelGrid grid(nx + 2 * pad, ny + 2 * pad, nz + 2 * pad, {0, 0, 0}, 1.0);
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) grid.Set(i + pad, j + pad, k + pad, true);
  return grid;
}

// ---- The simple-point predicate ---------------------------------------------

TEST(SimplePointParityTest,
     MatchesFirstPrinciplesReferenceOnSampledNeighborhoods) {
  // About 2^20 random neighborhoods of an object voxel, a third at each
  // density: sparse ones mostly test the object condition, dense ones the
  // background condition.
  Rng rng(23);
  VoxelGrid block(3, 3, 3, {0, 0, 0}, 1.0);
  constexpr int kSamplesPerDensity = (1 << 20) / 3;
  for (const double density : {0.2, 0.5, 0.8}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    int simple = 0;
    for (int n = 0; n < kSamplesPerDensity; ++n) {
      for (auto& v : block.mutable_raw()) v = rng.NextDouble() < density;
      block.Set(1, 1, 1, true);
      const bool expected = ReferenceSimple(block, 1, 1, 1);
      if (IsSimplePoint(block, 1, 1, 1) != expected) {
        // Bit n of the mask is raw cell n: (dz+1)*9 + (dy+1)*3 + (dx+1).
        uint32_t mask = 0;
        for (size_t c = 0; c < block.size(); ++c) {
          mask |= static_cast<uint32_t>(block.raw()[c]) << c;
        }
        FAIL() << "neighborhood mask 0x" << std::hex << mask
               << ": reference says simple=" << expected;
      }
      simple += expected;
    }
    // Both answers are common, so the sample tests both branches.
    EXPECT_GT(simple, kSamplesPerDensity / 100);
    EXPECT_LT(simple, kSamplesPerDensity - kSamplesPerDensity / 100);
  }
}

// ---- The standard dataset --------------------------------------------------

class StandardDatasetParityTest : public ::testing::TestWithParam<int> {};

TEST_P(StandardDatasetParityTest, SkeletonsAndLargestComponentsMatchFullScan) {
  auto dataset = BuildStandardDataset({.seed = 1});
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ThreadPool pool2(2), pool8(8);
  const std::vector<ThreadPool*> pools = {&pool2, &pool8};
  VoxelizationOptions voxelization;
  voxelization.resolution = GetParam();
  for (const auto& shape : dataset->shapes) {
    SCOPED_TRACE(shape.name);
    auto normalized = NormalizeMesh(shape.mesh);
    ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();
    auto voxels = VoxelizeMesh(normalized->mesh, voxelization);
    ASSERT_TRUE(voxels.ok()) << voxels.status().ToString();
    ExpectLabelsMatch(*voxels);
    const VoxelGrid solid = KeepLargestComponent(*voxels);
    ASSERT_EQ(solid.raw(), ReferenceKeepLargestComponent(*voxels).raw());
    ExpectThinningMatches(solid, {}, pools);
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, StandardDatasetParityTest,
                         ::testing::Values(24, 32, 64),
                         [](const auto& info) {
                           return "res" + std::to_string(info.param);
                         });

// ---- Hand-built inputs -----------------------------------------------------

class HandBuiltParityTest : public ::testing::Test {
 protected:
  ThreadPool pool2_{2}, pool8_{8};
  const std::vector<ThreadPool*> pools_ = {&pool2_, &pool8_};
};

TEST_F(HandBuiltParityTest, BlockTouchingTheGridShell) {
  // pad = 0: every face of the block lies on the grid shell, so thinning
  // reads its padding and the labelling takes its bounds-checked path.
  const VoxelGrid block = Block(7, 5, 9, /*pad=*/0);
  ExpectLabelsMatch(block);
  EXPECT_EQ(KeepLargestComponent(block).raw(),
            ReferenceKeepLargestComponent(block).raw());
  ExpectThinningMatches(block, {}, pools_);
}

TEST_F(HandBuiltParityTest, EmptyGrids) {
  for (const VoxelGrid& grid :
       {VoxelGrid(), VoxelGrid(5, 4, 3, {0, 0, 0}, 1.0)}) {
    ExpectLabelsMatch(grid);
    EXPECT_EQ(KeepLargestComponent(grid).raw(), grid.raw());
    ExpectThinningMatches(grid, {}, pools_);
    EXPECT_EQ(ThinToSkeleton(grid).CountSet(), 0u);
  }
}

TEST_F(HandBuiltParityTest, WithoutEndpointProtection) {
  // A padded block, a block on the shell and an L of two bars: without
  // endpoint protection each collapses past its curve skeleton.
  VoxelGrid ell = Block(9, 3, 3, 1);
  for (int j = 3; j < 9; ++j)
    for (int k = 1; k < 4; ++k)
      for (int i = 1; i < 4; ++i) ell.Set(i, j, k, true);
  const ThinningOptions options{.preserve_endpoints = false};
  for (const VoxelGrid& grid : {Block(6, 6, 6, 1), Block(5, 8, 3, 0), ell}) {
    ExpectThinningMatches(grid, options, pools_);
  }
}

TEST_F(HandBuiltParityTest, RandomGrids) {
  // Noise at several densities: many components, links through faces,
  // edges and corners only, cavities, and runs that touch the grid shell.
  Rng rng(17);
  for (const double density : {0.15, 0.3, 0.5, 0.7}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    VoxelGrid grid(19, 14, 11, {0, 0, 0}, 1.0);
    for (auto& v : grid.mutable_raw()) v = rng.NextDouble() < density;
    ExpectLabelsMatch(grid);
    EXPECT_EQ(KeepLargestComponent(grid).raw(),
              ReferenceKeepLargestComponent(grid).raw());
    ExpectThinningMatches(grid, {}, pools_);
  }
}

TEST_F(HandBuiltParityTest, PlateLargeEnoughToFanOut) {
  // All 405k voxels of the plate are border voxels, enough work for the
  // pooled runs to split the border set across two workers in the first
  // subiteration (at 10 ns a voxel they just clear the 4 ms two need).
  const ThinningOptions options{.max_iterations = 2};
  ExpectThinningMatches(Block(450, 450, 2, 1), options, pools_);
}

TEST_F(HandBuiltParityTest, SingleIteration) {
  const ThinningOptions options{.max_iterations = 1};
  for (const VoxelGrid& grid : {Block(12, 10, 8, 1), Block(9, 9, 9, 0)}) {
    ExpectThinningMatches(grid, options, pools_);
  }
}

}  // namespace
}  // namespace dess
