#include "src/skeleton/thinning.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"

namespace dess {
namespace {

// The 3x3x3 neighborhood is a 27-bit mask with bit n = (dz+1)*9 +
// (dy+1)*3 + (dx+1); bit 13 is the center voxel. Simple-point conditions
// become bitwise flood fills over precomputed per-cell adjacency masks.
constexpr int kCenter = 13;
constexpr uint32_t kCenterBit = 1u << kCenter;

constexpr std::array<uint32_t, 27> MakeAdjacency(bool six_connected) {
  std::array<uint32_t, 27> adj{};
  for (int n = 0; n < 27; ++n) {
    const int x = n % 3, y = (n / 3) % 3, z = n / 9;
    for (int m = 0; m < 27; ++m) {
      if (m == n) continue;
      const int dx = m % 3 - x, dy = (m / 3) % 3 - y, dz = m / 9 - z;
      const int ax = dx < 0 ? -dx : dx, ay = dy < 0 ? -dy : dy,
                az = dz < 0 ? -dz : dz;
      if (ax > 1 || ay > 1 || az > 1) continue;
      if (six_connected && ax + ay + az != 1) continue;
      adj[n] |= 1u << m;
    }
  }
  return adj;
}

// 26- and 6-adjacency within the block, center cell included like any other
// (callers restrict the flood domain, which never contains the center).
constexpr std::array<uint32_t, 27> kAdj26 = MakeAdjacency(false);
constexpr std::array<uint32_t, 27> kAdj6 = MakeAdjacency(true);

constexpr uint32_t MakeManhattanMask(int lo, int hi) {
  uint32_t mask = 0;
  for (int n = 0; n < 27; ++n) {
    const int dx = n % 3 - 1, dy = (n / 3) % 3 - 1, dz = n / 9 - 1;
    const int m = (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy) +
                  (dz < 0 ? -dz : dz);
    if (m >= lo && m <= hi) mask |= 1u << n;
  }
  return mask;
}

// 18-neighborhood (|dx|+|dy|+|dz| in {1,2}) and the six face neighbors.
constexpr uint32_t kN18Mask = MakeManhattanMask(1, 2);
constexpr uint32_t kSixMask = MakeManhattanMask(1, 1);

// Bitwise closure of `seed` within `domain` under per-cell adjacency.
inline uint32_t Closure(uint32_t seed, uint32_t domain,
                        const std::array<uint32_t, 27>& adj) {
  uint32_t comp = seed;
  uint32_t frontier = seed;
  while (frontier != 0) {
    uint32_t next = 0;
    do {
      next |= adj[std::countr_zero(frontier)];
      frontier &= frontier - 1;
    } while (frontier != 0);
    next &= domain & ~comp;
    comp |= next;
    frontier = next;
  }
  return comp;
}

// True if the object voxels of the neighborhood (center excluded) form
// exactly one 26-connected component. Assumes at least one object voxel.
inline bool SingleObjectComponent26(uint32_t nb) {
  const uint32_t obj = nb & ~kCenterBit;
  const uint32_t seed = obj & (~obj + 1);  // lowest set bit
  return Closure(seed, obj, kAdj26) == obj;
}

// True if the background voxels of the 18-neighborhood that are 6-adjacent
// to the center form exactly one 6-connected component within the empty
// N18 cells (Bertrand-Malandain background condition).
inline bool SingleBackgroundComponent6(uint32_t nb) {
  const uint32_t bg = ~nb & kN18Mask;
  uint32_t seeds = bg & kSixMask;
  if (seeds == 0) return false;
  const uint32_t first = Closure(seeds & (~seeds + 1), bg, kAdj6);
  return (seeds & ~first) == 0;
}

// Extracts the neighborhood of an interior voxel (all 26 neighbors in
// bounds) at linear index `idx` as a bit mask: nine 3-byte row loads at flat
// strides, no bounds checks.
inline uint32_t InteriorMask(const uint8_t* raw, size_t idx, ptrdiff_t sy,
                             ptrdiff_t sz) {
  uint32_t mask = 0;
  int n = 0;
  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      const uint8_t* row =
          raw + (static_cast<ptrdiff_t>(idx) - 1 + dy * sy + dz * sz);
      if (row[0]) mask |= 1u << n;
      if (row[1]) mask |= 1u << (n + 1);
      if (row[2]) mask |= 1u << (n + 2);
      n += 3;
    }
  }
  return mask;
}

// Extracts the neighborhood of (i,j,k) as a bit mask; out-of-bounds cells
// read as 0. Interior voxels take the strided fast path; only the O(N^2)
// shell falls back to clamped reads.
uint32_t NeighborhoodMask(const VoxelGrid& grid, int i, int j, int k) {
  if (i >= 1 && i + 1 < grid.nx() && j >= 1 && j + 1 < grid.ny() && k >= 1 &&
      k + 1 < grid.nz()) {
    return InteriorMask(grid.raw().data(), grid.Index(i, j, k), grid.nx(),
                        static_cast<ptrdiff_t>(grid.nx()) * grid.ny());
  }
  uint32_t mask = 0;
  int n = 0;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx, ++n)
        if (grid.GetClamped(i + dx, j + dy, k + dz)) mask |= 1u << n;
  return mask;
}

// Simple-and-not-protected test of an object voxel's neighborhood; shared
// by the candidate collection and the serial recheck so both phases apply
// the identical predicate.
inline bool IsDeletable(uint32_t nb, bool preserve_endpoints) {
  const int obj = std::popcount(nb & ~kCenterBit);
  if (preserve_endpoints && obj <= 1) return false;
  if (obj == 0) return false;  // isolated voxel: deletion kills a component
  return SingleObjectComponent26(nb) && SingleBackgroundComponent6(nb);
}

// Face-neighbor offsets (i, j, k), which are also the six subiteration
// directions: Up, Down, North, South, East, West borders in the
// Palagyi-Kuba order.
constexpr int kFaceDirs[6][3] = {{0, 0, 1},  {0, 0, -1}, {0, 1, 0},
                                 {0, -1, 0}, {1, 0, 0},  {-1, 0, 0}};

// Amortized cost of one border-list entry in a subiteration: the d-border
// test for every entry plus the simple-point test for the d-border share.
constexpr double kNsPerBorderVoxel = 25.0;

// The border list of one ThinToSkeleton call: every object voxel with an
// empty or out-of-bounds face neighbor. Only those can be d-border voxels,
// and deletions never refill a voxel, so each subiteration filters the list
// instead of scanning the grid.
//
// An entry is a voxel's linear index shifted left by one, with the low bit
// set for voxels on the grid shell, the only ones that need bounds checks.
// A grid's index stays below PTRDIFF_MAX, so the shift cannot overflow, and
// entries order as their indices do: the full scan's (k, j, i) order.
class BorderList {
 public:
  explicit BorderList(VoxelGrid* grid)
      : grid_(*grid),
        raw_(grid->mutable_raw().data()),
        sy_(grid->nx()),
        sz_(static_cast<ptrdiff_t>(grid->nx()) * grid->ny()),
        state_(grid->size(), 0) {
    const int nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        const bool row_shell = j == 0 || j + 1 == ny || k == 0 || k + 1 == nz;
        for (int i = 0; i < nx; ++i) {
          const size_t idx = grid_.Index(i, j, k);
          const bool shell = row_shell || i == 0 || i + 1 == nx;
          if (shell) state_[idx] = kShell;
          if (!raw_[idx]) continue;
          if (!shell && raw_[idx - 1] && raw_[idx + 1] && raw_[idx - sy_] &&
              raw_[idx + sy_] && raw_[idx - sz_] && raw_[idx + sz_]) {
            continue;
          }
          List(idx);
        }
      }
    }
  }

  size_t size() const { return border_.size(); }

  // Appends the entries border[lo, hi) that are border in direction d,
  // simple, and not protected endpoints. A pure read of the grid, so
  // concurrent workers on disjoint ranges need no synchronization.
  void Collect(const int d[3], size_t lo, size_t hi, bool preserve_endpoints,
               std::vector<uint64_t>* out) const {
    const ptrdiff_t d_stride = d[0] + d[1] * sy_ + d[2] * sz_;
    for (size_t n = lo; n < hi; ++n) {
      const uint64_t e = border_[n];
      const size_t idx = e >> 1;
      // Not a d-border voxel if the d-neighbor exists and is set.
      if (e & 1) {
        const auto [i, j, k] = Coords(idx);
        if (grid_.GetClamped(i + d[0], j + d[1], k + d[2])) continue;
      } else if (raw_[idx + d_stride]) {
        continue;
      }
      if (IsDeletable(Mask(e), preserve_endpoints)) out->push_back(e);
    }
  }

  // Re-checks the candidates in order against the mutating grid and deletes
  // the voxels still deletable; returns how many it deleted. Deleted voxels
  // leave the border list and their unlisted object face neighbors join it.
  size_t Delete(const std::vector<uint64_t>& candidates,
                bool preserve_endpoints) {
    deleted_.clear();
    for (const uint64_t e : candidates) {
      if (!raw_[e >> 1]) continue;
      if (!IsDeletable(Mask(e), preserve_endpoints)) continue;
      raw_[e >> 1] = 0;
      deleted_.push_back(e);
    }
    if (deleted_.empty()) return 0;
    std::erase_if(border_, [&](uint64_t e) { return !raw_[e >> 1]; });
    const ptrdiff_t faces[6] = {-sz_, -sy_, -1, 1, sy_, sz_};
    for (const uint64_t e : deleted_) {
      const size_t idx = e >> 1;
      if (!(e & 1)) {
        for (const ptrdiff_t f : faces) ListIfObject(idx + f);
        continue;
      }
      const auto [i, j, k] = Coords(idx);
      for (const auto& f : kFaceDirs) {
        if (grid_.InBounds(i + f[0], j + f[1], k + f[2])) {
          ListIfObject(grid_.Index(i + f[0], j + f[1], k + f[2]));
        }
      }
    }
    return deleted_.size();
  }

 private:
  static constexpr uint8_t kShell = 1;
  static constexpr uint8_t kListed = 2;

  void List(size_t idx) {
    state_[idx] |= kListed;
    border_.push_back(static_cast<uint64_t>(idx) << 1 |
                      (state_[idx] & kShell));
  }

  void ListIfObject(size_t idx) {
    if (raw_[idx] && !(state_[idx] & kListed)) List(idx);
  }

  std::array<int, 3> Coords(size_t idx) const {
    const size_t row = idx / grid_.nx();
    return {static_cast<int>(idx % grid_.nx()),
            static_cast<int>(row % grid_.ny()),
            static_cast<int>(row / grid_.ny())};
  }

  uint32_t Mask(uint64_t e) const {
    if (!(e & 1)) return InteriorMask(raw_, e >> 1, sy_, sz_);
    const auto [i, j, k] = Coords(e >> 1);
    return NeighborhoodMask(grid_, i, j, k);
  }

  const VoxelGrid& grid_;
  uint8_t* raw_;
  const ptrdiff_t sy_, sz_;
  // Per voxel: kShell if it lies on the grid shell, kListed once listed.
  std::vector<uint8_t> state_;
  std::vector<uint64_t> border_;
  std::vector<uint64_t> deleted_;
};

}  // namespace

bool IsSimplePoint(const VoxelGrid& grid, int i, int j, int k) {
  const uint32_t nb = NeighborhoodMask(grid, i, j, k);
  return (nb & kCenterBit) && IsDeletable(nb, /*preserve_endpoints=*/false);
}

VoxelGrid ThinToSkeleton(const VoxelGrid& solid,
                         const ThinningOptions& options) {
  DESS_TIMED_SCOPE("stage.thin");
  VoxelGrid grid = solid;
  BorderList border(&grid);
  std::vector<std::vector<uint64_t>> part_candidates;
  std::vector<uint64_t> candidates;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    size_t deleted_this_iter = 0;
    for (const auto& d : kFaceDirs) {
      // Phase 1: filter the border list against the frozen grid, over
      // contiguous parts in parallel when each worker's share clears the
      // 2ms amortization floor of RecommendedWorkers.
      candidates.clear();
      const size_t n = border.size();
      const int parts = RecommendedWorkers(
          options.pool, kNsPerBorderVoxel * static_cast<double>(n), 2e6);
      if (parts <= 1) {
        border.Collect(d, 0, n, options.preserve_endpoints, &candidates);
      } else {
        part_candidates.resize(parts);
        ParallelFor(options.pool, parts, [&](size_t p) {
          part_candidates[p].clear();
          border.Collect(d, p * n / parts, (p + 1) * n / parts,
                         options.preserve_endpoints, &part_candidates[p]);
        });
        for (int p = 0; p < parts; ++p) {
          candidates.insert(candidates.end(), part_candidates[p].begin(),
                            part_candidates[p].end());
        }
      }
      // The list holds every d-border voxel exactly once, so in index order
      // the candidates are exactly those of a full-grid scan.
      std::sort(candidates.begin(), candidates.end());
      // Phase 2: delete sequentially, re-checking simplicity against the
      // mutated grid so that parallel deletions cannot break topology (and
      // so the skeleton is identical for every worker count).
      deleted_this_iter +=
          border.Delete(candidates, options.preserve_endpoints);
    }
    if (deleted_this_iter == 0) break;
  }
  return grid;
}

}  // namespace dess
