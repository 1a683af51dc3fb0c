// Grid-based fixed-radius neighbor search — the cuNSearch and FRNN
// analogs over one uniform grid.
//
// Both grid baselines of the paper (section 6.1) bin the points into
// cells of width r, the search radius, and then differ only in the walk:
//   * range_search is cuNSearch (Hoetzlein, "Fast fixed-radius nearest
//     neighbors"), the work-inefficient / hardware-friendly end of the
//     paper's trade-off: each query exhaustively tests the 3x3x3 cell
//     neighborhood. "cuNSearch has only a range search implementation."
//   * knn_search is FRNN (the PyTorch3D knn_points replacement the paper
//     compares against): expanding Chebyshev shells of cells are visited
//     until a shell lies strictly beyond the K-th nearest distance found
//     so far (or the radius bound). A shell at exactly that distance is
//     still visited: a tied point with a smaller id would displace the
//     heap's root.
// One build serves both walks, as one Octree serves its two.
#pragma once

#include <span>
#include <vector>

#include "baselines/uniform_grid.hpp"
#include "core/neighbor_result.hpp"

namespace rtnn::baselines {

class GridRangeSearch {
 public:
  /// Copies `points` and bins them into cells of width `radius`.
  void build(std::span<const Vec3> points, float radius);

  /// Up to `k` neighbors within the build radius of each query
  /// (`store_indices` = false: counts only).
  NeighborResult range_search(std::span<const Vec3> queries, std::uint32_t k,
                              bool store_indices = true) const;

  /// The K smallest (distance², point index) pairs within the build
  /// radius, in that order (`store_indices` = false: counts only).
  NeighborResult knn_search(std::span<const Vec3> queries, std::uint32_t k,
                            bool store_indices = true) const;

 private:
  std::vector<Vec3> points_;
  UniformGrid grid_;
  float radius_ = 0.0f;
};

}  // namespace rtnn::baselines
