// Grid-based fixed-radius neighbor search — the cuNSearch analog.
//
// cuNSearch (Hoetzlein, "Fast fixed-radius nearest neighbors") is the
// work-inefficient / hardware-friendly end of the paper's trade-off: bin
// points into cells of width r, then each query exhaustively tests the
// 3x3x3 cell neighborhood. "cuNSearch has only a range search
// implementation" (paper section 6.1) — so does this class.
#pragma once

#include <span>

#include "baselines/uniform_grid.hpp"
#include "core/neighbor_result.hpp"

namespace rtnn::baselines {

struct GridRangeOptions {
  /// Cell width as a multiple of the search radius (1 = cuNSearch).
  float cell_factor = 1.0f;
  std::uint64_t max_cells = std::uint64_t{1} << 27;
};

class GridRangeSearch {
 public:
  using Options = GridRangeOptions;

  void build(std::span<const Vec3> points, float radius, const Options& options = Options{});

  /// Up to `k` neighbors within the build radius of each query
  /// (`store_indices` = false: counts only).
  NeighborResult search(std::span<const Vec3> queries, std::uint32_t k,
                        bool store_indices = true) const;

  const UniformGrid& grid() const { return grid_; }

 private:
  std::vector<Vec3> points_;
  UniformGrid grid_;
  float radius_ = 0.0f;
};

}  // namespace rtnn::baselines
