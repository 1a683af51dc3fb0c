// Uniform grid with a 3D summed-area table over per-cell point counts.
//
// Section 5.1's megacell computation needs, for every query, the number of
// points inside an iteratively growing box of cells. We precompute a 3D
// summed-area table (SAT) of the cell histogram so any axis-aligned box of
// cells is counted in O(1) — the CUDA original achieves the same effect
// with its growth kernel; the SAT keeps the CPU substitute's megacell
// phase from dominating.
//
// "An important parameter is the grid resolution ... we use the smallest
// cell size allowed by the GPU memory capacity" — expressed here as
// `max_cells`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/vec3.hpp"

namespace rtnn {

class GridIndex {
 public:
  /// Builds the histogram + SAT over `points` with cubic cells, choosing
  /// the finest resolution with at most `max_cells` cells.
  void build(std::span<const Vec3> points, std::uint64_t max_cells);

  bool built() const { return !sat_.empty(); }
  float cell_size() const { return cell_size_; }
  const Aabb& bounds() const { return bounds_; }
  Int3 resolution() const { return res_; }

  /// Grid coordinates of `p`, clamped into the grid (grid_cell).
  Int3 cell_of(const Vec3& p) const { return grid_cell(p, bounds_.lo, cell_size_, res_); }

  /// Number of points in the inclusive cell box [lo, hi] (clamped).
  std::uint64_t count_in_box(Int3 lo, Int3 hi) const;

  /// Total number of points indexed.
  std::uint64_t total() const;

 private:
  std::uint64_t sat_at(int x, int y, int z) const {
    // sat_ has dims (res+1)^3; index (x,y,z) = inclusive prefix up to cell
    // (x-1,y-1,z-1).
    return sat_[(static_cast<std::size_t>(z) * static_cast<std::size_t>(res_.y + 1) +
                 static_cast<std::size_t>(y)) *
                    static_cast<std::size_t>(res_.x + 1) +
                static_cast<std::size_t>(x)];
  }

  Aabb bounds_;
  Int3 res_{0, 0, 0};
  float cell_size_ = 0.0f;
  std::vector<std::uint64_t> sat_;
};

}  // namespace rtnn
