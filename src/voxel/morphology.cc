#include "src/voxel/morphology.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace dess {
namespace {

// Returns the neighbor offsets for a connectivity class.
const std::vector<std::array<int, 3>>& Offsets(Connectivity conn) {
  static const std::vector<std::array<int, 3>>* k6 = [] {
    auto* v = new std::vector<std::array<int, 3>>{
        {1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}};
    return v;
  }();
  static const std::vector<std::array<int, 3>>* k18 = [] {
    auto* v = new std::vector<std::array<int, 3>>();
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          const int manhattan = std::abs(dx) + std::abs(dy) + std::abs(dz);
          if (manhattan >= 1 && manhattan <= 2) v->push_back({dx, dy, dz});
        }
    return v;
  }();
  static const std::vector<std::array<int, 3>>* k26 = [] {
    auto* v = new std::vector<std::array<int, 3>>();
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx || dy || dz) v->push_back({dx, dy, dz});
        }
    return v;
  }();
  switch (conn) {
    case Connectivity::k6:
      return *k6;
    case Connectivity::k18:
      return *k18;
    case Connectivity::k26:
      return *k26;
  }
  return *k26;
}

}  // namespace

VoxelGrid Dilate(const VoxelGrid& grid, Connectivity conn) {
  VoxelGrid out = grid;
  const auto& offs = Offsets(conn);
  for (int k = 0; k < grid.nz(); ++k) {
    for (int j = 0; j < grid.ny(); ++j) {
      for (int i = 0; i < grid.nx(); ++i) {
        if (grid.Get(i, j, k)) continue;
        for (const auto& d : offs) {
          if (grid.GetClamped(i + d[0], j + d[1], k + d[2])) {
            out.Set(i, j, k, true);
            break;
          }
        }
      }
    }
  }
  return out;
}

VoxelGrid Erode(const VoxelGrid& grid, Connectivity conn) {
  VoxelGrid out = grid;
  const auto& offs = Offsets(conn);
  for (int k = 0; k < grid.nz(); ++k) {
    for (int j = 0; j < grid.ny(); ++j) {
      for (int i = 0; i < grid.nx(); ++i) {
        if (!grid.Get(i, j, k)) continue;
        for (const auto& d : offs) {
          if (!grid.GetClamped(i + d[0], j + d[1], k + d[2])) {
            out.Set(i, j, k, false);
            break;
          }
        }
      }
    }
  }
  return out;
}

int LabelComponents(const VoxelGrid& grid, Connectivity conn,
                    std::vector<int>* labels) {
  const int nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
  // The flood labels whole x-runs (maximal rows of set voxels) at a time. A
  // run [x0, x1] of row (j, k) reaches, in each neighbor row (j+dj, k+dk),
  // the voxels [x0 - reach, x1 + reach]: reach 1 when the diagonal step
  // dx = +-1 is still within `conn`, else 0. Rows are addressed by flat
  // strides; bounds are checked once per row, not per voxel.
  const int max_manhattan =
      conn == Connectivity::k6 ? 1 : conn == Connectivity::k18 ? 2 : 3;
  struct NeighborRow {
    int dj, dk, reach;
    ptrdiff_t stride;
  };
  std::array<NeighborRow, 8> rows{};
  size_t num_rows = 0;
  for (int dk = -1; dk <= 1; ++dk) {
    for (int dj = -1; dj <= 1; ++dj) {
      const int manhattan = std::abs(dj) + std::abs(dk);
      if (manhattan == 0 || manhattan > max_manhattan) continue;
      rows[num_rows++] = {dj, dk, manhattan < max_manhattan ? 1 : 0,
                          static_cast<ptrdiff_t>(dj) * nx +
                              static_cast<ptrdiff_t>(dk) * nx * ny};
    }
  }
  // Set voxels start as kUnlabeled; runs are labeled whole, so one load
  // tells whether a run still needs its label.
  constexpr int kUnlabeled = -1;
  const std::vector<uint8_t>& raw = grid.raw();
  labels->resize(raw.size());
  int* label = labels->data();
  for (size_t idx = 0; idx < raw.size(); ++idx) {
    label[idx] = raw[idx] ? kUnlabeled : 0;
  }
  struct Run {
    int j, k, x0, x1;
  };
  std::vector<Run> stack;
  int next_label = 0;
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      int* row = label + grid.Index(0, j, k);
      for (int i = 0; i < nx; ++i) {
        if (row[i] != kUnlabeled) continue;
        // Voxels left of i in this row are empty or already labeled, so
        // the seed's run starts at i.
        ++next_label;
        int x1 = i;
        while (x1 + 1 < nx && row[x1 + 1] == kUnlabeled) ++x1;
        std::fill(row + i, row + x1 + 1, next_label);
        stack.push_back({j, k, i, x1});
        while (!stack.empty()) {
          const Run run = stack.back();
          stack.pop_back();
          int* run_row = label + grid.Index(0, run.j, run.k);
          for (size_t r = 0; r < num_rows; ++r) {
            const NeighborRow& n = rows[r];
            const int nj = run.j + n.dj, nk = run.k + n.dk;
            if (nj < 0 || nj >= ny || nk < 0 || nk >= nz) continue;
            int* nrow = run_row + n.stride;
            const int hi = std::min(run.x1 + n.reach, nx - 1);
            for (int x = std::max(run.x0 - n.reach, 0); x <= hi; ++x) {
              if (nrow[x] != kUnlabeled) continue;
              int a = x, b = x;
              while (a > 0 && nrow[a - 1] == kUnlabeled) --a;
              while (b + 1 < nx && nrow[b + 1] == kUnlabeled) ++b;
              std::fill(nrow + a, nrow + b + 1, next_label);
              stack.push_back({nj, nk, a, b});
              x = b;
            }
          }
        }
      }
    }
  }
  return next_label;
}

int CountObjectComponents(const VoxelGrid& grid) {
  std::vector<int> labels;
  return LabelComponents(grid, Connectivity::k26, &labels);
}

int CountBackgroundComponents(const VoxelGrid& grid) {
  // Complement the grid, then 6-connected labeling.
  VoxelGrid inv = grid;
  auto& raw = inv.mutable_raw();
  for (auto& v : raw) v = v ? 0 : 1;
  std::vector<int> labels;
  return LabelComponents(inv, Connectivity::k6, &labels);
}

VoxelGrid KeepLargestComponent(const VoxelGrid& grid) {
  std::vector<int> labels;
  const int n = LabelComponents(grid, Connectivity::k26, &labels);
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

}  // namespace dess
