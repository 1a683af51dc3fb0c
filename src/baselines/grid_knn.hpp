// Grid-based KNN — the FRNN analog.
//
// FRNN ("fixed radius nearest neighbor", the PyTorch3D knn_points
// replacement the paper compares against) performs radius-bounded KNN on
// a uniform grid: expanding Chebyshev shells of cells are visited until
// a shell lies strictly beyond the K-th nearest distance found so far (or
// the radius bound). A shell at exactly that distance is still visited:
// a tied point with a smaller id would displace the heap's root.
#pragma once

#include <span>

#include "baselines/uniform_grid.hpp"
#include "core/neighbor_result.hpp"

namespace rtnn::baselines {

struct GridKnnOptions {
  /// Cell width as a multiple of the radius bound. FRNN sizes cells to
  /// the radius; smaller factors trade build cost for tighter shells.
  float cell_factor = 1.0f;
  std::uint64_t max_cells = std::uint64_t{1} << 27;
};

class GridKnn {
 public:
  using Options = GridKnnOptions;

  void build(std::span<const Vec3> points, float radius, const Options& options = Options{});

  /// The K smallest (distance², point index) pairs within the radius
  /// bound, in that order (`store_indices` = false: counts only).
  NeighborResult search(std::span<const Vec3> queries, std::uint32_t k,
                        bool store_indices = true) const;

  const UniformGrid& grid() const { return grid_; }

 private:
  std::vector<Vec3> points_;
  UniformGrid grid_;
  float radius_ = 0.0f;
};

}  // namespace rtnn::baselines
