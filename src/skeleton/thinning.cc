#include "src/skeleton/thinning.h"

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

// Extracts the neighborhood of (i,j,k) as a bit mask; out-of-bounds cells
// read as 0.
uint32_t NeighborhoodMask(const VoxelGrid& grid, int i, int j, int k) {
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

// Direct-mapped memo of IsDeletable for one ThinToSkeleton call, whose
// endpoint setting is fixed. Thinning a model meets few distinct
// neighborhoods, so most tests are hits. A slot keeps the whole 27-bit
// mask with the answer in bit 31, so a hit returns exactly what the test
// would; the empty value has bits 27-30 set, which no mask has.
class DeletableMemo {
 public:
  explicit DeletableMemo(bool preserve_endpoints)
      : preserve_endpoints_(preserve_endpoints), slots_(kSlots, kEmpty) {}

  bool operator()(uint32_t nb) {
    uint32_t& slot = slots_[(nb * 0x9E3779B1u) >> (32 - kSlotBits)];
    if ((slot & ~kAnswerBit) == nb) return (slot & kAnswerBit) != 0;
    const bool deletable = IsDeletable(nb, preserve_endpoints_);
    slot = nb | (deletable ? kAnswerBit : 0);
    return deletable;
  }

 private:
  static constexpr int kSlotBits = 14;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  static constexpr uint32_t kAnswerBit = 1u << 31;
  static constexpr uint32_t kEmpty = ~0u;

  bool preserve_endpoints_;
  std::vector<uint32_t> slots_;
};

// Bit b (b < 3) says whether row[b] is set, from one 4-byte load of which
// row[3] is ignored. Cells hold 0 or 1.
inline uint32_t RowBits(const uint8_t* row) {
  uint32_t v;
  std::memcpy(&v, row, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v &= 0x00010101u;
    return (v | v >> 7 | v >> 14) & 7u;
  } else {
    v &= 0x01010100u;
    return (v >> 24 | v >> 15 | v >> 6) & 7u;
  }
}

// The neighborhood of the voxel at `cell` as a bit mask: nine row loads at
// flat strides, no bounds checks. Every neighbor and the byte after the
// last row must lie in the buffer.
inline uint32_t InteriorMask(const uint8_t* cell, ptrdiff_t sy, ptrdiff_t sz) {
  const uint8_t* c = cell - 1;
  return RowBits(c - sz - sy) | RowBits(c - sz) << 3 |
         RowBits(c - sz + sy) << 6 | RowBits(c - sy) << 9 | RowBits(c) << 12 |
         RowBits(c + sy) << 15 | RowBits(c + sz - sy) << 18 |
         RowBits(c + sz) << 21 | RowBits(c + sz + sy) << 24;
}

// Face-neighbor offsets (i, j, k), which are also the six subiteration
// directions: Up, Down, North, South, East, West borders in the
// Palagyi-Kuba order.
constexpr int kFaceDirs[6][3] = {{0, 0, 1},  {0, 0, -1}, {0, 1, 0},
                                 {0, -1, 0}, {1, 0, 0},  {-1, 0, 0}};

// Amortized cost of one border voxel in a subiteration's filter: the
// d-border test for every voxel plus the memoized simple-point test for
// the d-border share.
constexpr double kNsPerBorderVoxel = 10.0;

// The working state of one ThinToSkeleton call. The solid is copied as
// 0/1 cells into a buffer padded by one empty voxel on every side, plus
// one trailing byte for the last row load, so every input voxel is
// interior and every read is unchecked.
//
// The border set keeps one bit per padded voxel, set for every object
// voxel with an empty face neighbor. Only those can be d-border voxels,
// and deletions never refill a voxel, so each subiteration filters the set
// instead of scanning the grid. Walking its words in order visits voxels
// in index order, which is the full scan's (k, j, i) order.
class Thinner {
 public:
  explicit Thinner(const VoxelGrid& solid)
      : nx_(solid.nx()),
        ny_(solid.ny()),
        nz_(solid.nz()),
        sy_(nx_ + 2),
        sz_(sy_ * (ny_ + 2)) {
    const size_t padded = static_cast<size_t>(sz_) * (nz_ + 2);
    cells_.assign(padded + 1, 0);
    border_.assign((padded + 63) / 64, 0);
    const uint8_t* in = solid.raw().data();
    for (int k = 0; k < nz_; ++k) {
      for (int j = 0; j < ny_; ++j) {
        const uint8_t* src = in + solid.Index(0, j, k);
        uint8_t* dst = cells_.data() + Cell(0, j, k);
        for (int i = 0; i < nx_; ++i) dst[i] = src[i] != 0;
      }
    }
    for (int k = 0; k < nz_; ++k) {
      for (int j = 0; j < ny_; ++j) {
        const size_t row = Cell(0, j, k);
        for (size_t p = row; p < row + nx_; ++p) {
          const uint8_t* c = cells_.data() + p;
          if (*c && !(c[-1] && c[1] && c[-sy_] && c[sy_] && c[-sz_] &&
                      c[sz_])) {
            Mark(p);
          }
        }
      }
    }
  }

  size_t border_count() const { return border_count_; }
  size_t border_words() const { return border_.size(); }

  // Appends the voxels of border words [lo, hi) that are border in
  // direction `d`, simple, and not protected endpoints. Reads only the
  // cells and the set, so concurrent workers on disjoint word ranges, each
  // with its own memo, need no synchronization.
  void Collect(const int d[3], size_t lo, size_t hi, DeletableMemo* memo,
               std::vector<size_t>* out) const {
    const ptrdiff_t d_stride = d[0] + d[1] * sy_ + d[2] * sz_;
    for (size_t w = lo; w < hi; ++w) {
      for (uint64_t bits = border_[w]; bits != 0; bits &= bits - 1) {
        const size_t p = w * 64 + std::countr_zero(bits);
        const uint8_t* c = cells_.data() + p;
        // Not a d-border voxel if its d-neighbor is set.
        if (c[d_stride]) continue;
        if ((*memo)(InteriorMask(c, sy_, sz_))) out->push_back(p);
      }
    }
  }

  // Re-checks the candidates in order against the mutating cells and
  // deletes the voxels still deletable; returns how many it deleted.
  // Candidates are distinct, so each is still an object voxel here. A
  // deleted voxel leaves the border set and its object face neighbors
  // join it.
  size_t Delete(const std::vector<size_t>& candidates, DeletableMemo* memo) {
    const ptrdiff_t faces[6] = {-sz_, -sy_, -1, 1, sy_, sz_};
    size_t deleted = 0;
    for (const size_t p : candidates) {
      uint8_t* c = cells_.data() + p;
      if (!(*memo)(InteriorMask(c, sy_, sz_))) continue;
      *c = 0;
      border_[p / 64] &= ~(uint64_t{1} << (p % 64));
      --border_count_;
      for (const ptrdiff_t f : faces) {
        if (c[f]) Mark(p + f);
      }
      ++deleted;
    }
    return deleted;
  }

  // Clears every deleted voxel in `grid`, a copy of the solid.
  void ClearDeleted(VoxelGrid* grid) const {
    uint8_t* out = grid->mutable_raw().data();
    for (int k = 0; k < nz_; ++k) {
      for (int j = 0; j < ny_; ++j) {
        const uint8_t* src = cells_.data() + Cell(0, j, k);
        uint8_t* dst = out + grid->Index(0, j, k);
        for (int i = 0; i < nx_; ++i) {
          if (!src[i]) dst[i] = 0;
        }
      }
    }
  }

 private:
  // Padded index of input voxel (i, j, k).
  size_t Cell(int i, int j, int k) const {
    return static_cast<size_t>(k + 1) * sz_ + static_cast<size_t>(j + 1) * sy_ +
           (i + 1);
  }

  void Mark(size_t p) {
    uint64_t& word = border_[p / 64];
    const uint64_t bit = uint64_t{1} << (p % 64);
    border_count_ += (word & bit) == 0;
    word |= bit;
  }

  const int nx_, ny_, nz_;
  const ptrdiff_t sy_, sz_;
  std::vector<uint8_t> cells_;
  std::vector<uint64_t> border_;
  size_t border_count_ = 0;  // set bits in border_
};

}  // namespace

bool IsSimplePoint(const VoxelGrid& grid, int i, int j, int k) {
  const uint32_t nb = NeighborhoodMask(grid, i, j, k);
  return (nb & kCenterBit) && IsDeletable(nb, /*preserve_endpoints=*/false);
}

VoxelGrid ThinToSkeleton(const VoxelGrid& solid,
                         const ThinningOptions& options) {
  DESS_TIMED_SCOPE("stage.thin");
  Thinner thinner(solid);
  // One memo per filter part; the first also serves the serial recheck.
  std::vector<DeletableMemo> memos;
  memos.emplace_back(options.preserve_endpoints);
  std::vector<std::vector<size_t>> part_candidates;
  std::vector<size_t> candidates;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    size_t deleted_this_iter = 0;
    for (const auto& d : kFaceDirs) {
      // Phase 1: filter the border set against the frozen cells, over
      // contiguous word ranges in parallel when each worker's share clears
      // the 2ms amortization floor of RecommendedWorkers. The set holds
      // every d-border voxel exactly once and the parts are concatenated in
      // order, so the candidates are exactly those of a full-grid scan, in
      // its order.
      candidates.clear();
      const size_t words = thinner.border_words();
      const double cost_ns =
          kNsPerBorderVoxel * static_cast<double>(thinner.border_count());
      const int parts = RecommendedWorkers(options.pool, cost_ns, 2e6);
      if (parts <= 1) {
        thinner.Collect(d, 0, words, &memos[0], &candidates);
      } else {
        while (memos.size() < static_cast<size_t>(parts)) {
          memos.emplace_back(options.preserve_endpoints);
        }
        part_candidates.resize(parts);
        ParallelFor(options.pool, parts, [&](size_t p) {
          part_candidates[p].clear();
          thinner.Collect(d, p * words / parts, (p + 1) * words / parts,
                          &memos[p], &part_candidates[p]);
        });
        for (int p = 0; p < parts; ++p) {
          candidates.insert(candidates.end(), part_candidates[p].begin(),
                            part_candidates[p].end());
        }
      }
      // Phase 2: delete sequentially, re-checking simplicity against the
      // mutated cells so that parallel deletions cannot break topology (and
      // so the skeleton is identical for every worker count).
      deleted_this_iter += thinner.Delete(candidates, &memos[0]);
    }
    if (deleted_this_iter == 0) break;
  }
  VoxelGrid skeleton = solid;
  thinner.ClearDeleted(&skeleton);
  return skeleton;
}

}  // namespace dess
