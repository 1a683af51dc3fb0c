#include "baselines/grid_search.hpp"

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace rtnn::baselines {

void GridRangeSearch::build(std::span<const Vec3> points, float radius,
                            const Options& options) {
  RTNN_CHECK(radius > 0.0f, "radius must be positive");
  points_.assign(points.begin(), points.end());
  radius_ = radius;
  grid_.build(points_, radius * options.cell_factor, options.max_cells);
}

NeighborResult GridRangeSearch::search(std::span<const Vec3> queries, std::uint32_t k,
                                       bool store_indices) const {
  RTNN_CHECK(grid_.built(), "search before build");
  NeighborResult result(queries.size(), k, store_indices);
  const float r2 = radius_ * radius_;
  parallel_for(0, static_cast<std::int64_t>(queries.size()), [&](std::int64_t qi) {
    const Vec3 q = queries[static_cast<std::size_t>(qi)];
    const Aabb search_box{{q.x - radius_, q.y - radius_, q.z - radius_},
                          {q.x + radius_, q.y + radius_, q.z + radius_}};
    bool done = false;
    grid_.for_each_cell_in(search_box, [&](const Int3& cell) {
      if (done) return;
      for (const std::uint32_t p : grid_.points_in_cell(cell)) {
        if (distance2(points_[p], q) <= r2) {
          if (result.record(static_cast<std::size_t>(qi), p) == k) {
            done = true;
            return;
          }
        }
      }
    });
  }, 256);
  return result;
}

}  // namespace rtnn::baselines
