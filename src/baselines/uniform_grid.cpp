#include "baselines/uniform_grid.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace rtnn::baselines {

void UniformGrid::build(std::span<const Vec3> points, float cell_size,
                        std::uint64_t max_cells) {
  RTNN_CHECK(cell_size > 0.0f, "cell size must be positive");
  RTNN_CHECK(!points.empty(), "cannot build a grid over zero points");

  bounds_ = Aabb{};
  for (const Vec3& p : points) bounds_.grow(p);
  // Pad so boundary points land strictly inside.
  const float pad = std::max(1e-6f, 1e-5f * max_component(bounds_.extent()));
  bounds_ = bounds_.expanded(pad);

  // Enlarge cells until the grid fits the memory budget. The count is
  // checked in floating point before any cast: one far-out point makes
  // extent / cell overflow every integer type (even reach inf).
  cell_size_ = cell_size;
  const Vec3 extent = bounds_.extent();
  for (;;) {
    double total = 1.0;
    for (int axis = 0; axis < 3; ++axis) {
      total *= std::max(1.0f, std::ceil(extent[axis] / cell_size_));
    }
    if (total <= static_cast<double>(max_cells)) break;
    cell_size_ *= 1.5f;
  }
  for (int axis = 0; axis < 3; ++axis) {
    res_[axis] = static_cast<int>(std::max(1.0f, std::ceil(extent[axis] / cell_size_)));
  }

  const std::uint64_t cells = static_cast<std::uint64_t>(res_.x) *
                              static_cast<std::uint64_t>(res_.y) *
                              static_cast<std::uint64_t>(res_.z);
  // Counting sort: histogram, exclusive scan, scatter.
  std::vector<std::uint32_t> histogram(cells + 1, 0);
  std::vector<std::uint64_t> point_cell(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    point_cell[i] = cell_index(cell_of(points[i]));
    ++histogram[point_cell[i]];
  }
  cell_start_.assign(cells + 1, 0);
  std::uint32_t sum = 0;
  for (std::uint64_t c = 0; c < cells; ++c) {
    cell_start_[c] = sum;
    sum += histogram[c];
  }
  cell_start_[cells] = sum;

  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  point_ids_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    point_ids_[cursor[point_cell[i]]++] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace rtnn::baselines
