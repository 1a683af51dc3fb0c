#include "baselines/grid_search.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/flat_knn.hpp"
#include "core/parallel.hpp"

namespace rtnn::baselines {

void GridRangeSearch::build(std::span<const Vec3> points, float radius) {
  RTNN_CHECK(radius > 0.0f, "radius must be positive");
  points_.assign(points.begin(), points.end());
  radius_ = radius;
  grid_.build(points_, radius);
}

NeighborResult GridRangeSearch::range_search(std::span<const Vec3> queries,
                                             std::uint32_t k, bool store_indices) const {
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

NeighborResult GridRangeSearch::knn_search(std::span<const Vec3> queries,
                                           std::uint32_t k, bool store_indices) const {
  RTNN_CHECK(grid_.built(), "search before build");
  FlatKnnHeaps heaps(queries.size(), k);
  const float r2 = radius_ * radius_;
  const float cell = grid_.cell_size();
  const int max_shell = static_cast<int>(std::ceil(radius_ / cell)) + 1;
  const Int3 res = grid_.resolution();

  parallel_for(0, static_cast<std::int64_t>(queries.size()), [&](std::int64_t qi) {
    const auto row = static_cast<std::size_t>(qi);
    const Vec3 q = queries[row];
    const Int3 qc = grid_.cell_of(q);

    for (int shell = 0; shell <= max_shell; ++shell) {
      // Earliest possible distance of any point in this shell: points in
      // cells at Chebyshev distance `shell` are at least (shell-1) cells
      // away in space (the query sits somewhere inside its own cell). A
      // point at exactly the worst distance may still displace a tied
      // entry with a larger id, so only a strictly farther shell stops.
      if (shell >= 2) {
        const float min_dist = static_cast<float>(shell - 1) * cell;
        const float min_dist2 = min_dist * min_dist;
        if (min_dist2 > r2 || min_dist2 > heaps.worst_dist2(row)) break;
      }
      // Visit all cells whose Chebyshev distance from qc equals `shell`.
      const int zlo = std::max(qc.z - shell, 0);
      const int zhi = std::min(qc.z + shell, res.z - 1);
      const int ylo = std::max(qc.y - shell, 0);
      const int yhi = std::min(qc.y + shell, res.y - 1);
      const int xlo = std::max(qc.x - shell, 0);
      const int xhi = std::min(qc.x + shell, res.x - 1);
      for (int z = zlo; z <= zhi; ++z) {
        const bool z_face = (z == qc.z - shell || z == qc.z + shell);
        for (int y = ylo; y <= yhi; ++y) {
          const bool y_face = (y == qc.y - shell || y == qc.y + shell);
          for (int x = xlo; x <= xhi; ++x) {
            const bool x_face = (x == qc.x - shell || x == qc.x + shell);
            if (shell > 0 && !(x_face || y_face || z_face)) continue;
            for (const std::uint32_t p : grid_.points_in_cell({x, y, z})) {
              const float d2 = distance2(points_[p], q);
              if (d2 <= r2) heaps.push(row, d2, p);
            }
          }
        }
      }
    }
  }, 128);
  return heaps.extract(store_indices);
}

}  // namespace rtnn::baselines
