#include "rtnn/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "core/parallel.hpp"

#include "core/error.hpp"

namespace rtnn {

void GridIndex::build(std::span<const Vec3> points, std::uint64_t max_cells) {
  RTNN_CHECK(!points.empty(), "cannot index zero points");
  RTNN_CHECK(max_cells >= 8, "max_cells too small");

  bounds_ = Aabb{};
  for (const Vec3& p : points) bounds_.grow(p);
  const float pad = std::max(1e-6f, 1e-5f * max_component(bounds_.extent()));
  bounds_ = bounds_.expanded(pad);
  const Vec3 extent = bounds_.extent();

  // Finest cubic cell size with at most max_cells cells: start from the
  // equal-volume estimate and coarsen until the product fits.
  const double volume = static_cast<double>(extent.x) * extent.y * extent.z;
  float cell = static_cast<float>(std::cbrt(volume / static_cast<double>(max_cells)));
  if (!(cell > 0.0f)) cell = 1e-6f;
  for (;;) {
    std::uint64_t total_cells = 1;
    for (int axis = 0; axis < 3; ++axis) {
      const auto n = static_cast<std::uint64_t>(
          std::max(1.0f, std::ceil(extent[axis] / cell)));
      res_[axis] = static_cast<int>(n);
      total_cells *= n;
    }
    if (total_cells <= max_cells) break;
    cell *= 1.1f;
  }
  cell_size_ = cell;

  // Histogram of points per cell (per-thread histograms, merged).
  const std::size_t nx = static_cast<std::size_t>(res_.x);
  const std::size_t ny = static_cast<std::size_t>(res_.y);
  const std::size_t nz = static_cast<std::size_t>(res_.z);
  const std::size_t cells = nx * ny * nz;
  std::vector<std::uint32_t> histogram(cells, 0);
  {
    std::mutex merge_mutex;
    parallel_for_chunks(0, static_cast<std::int64_t>(points.size()),
                        [&](std::int64_t lo, std::int64_t hi) {
                          std::vector<std::uint32_t> local(cells, 0);
                          for (std::int64_t i = lo; i < hi; ++i) {
                            const Int3 c = cell_of(points[static_cast<std::size_t>(i)]);
                            ++local[(static_cast<std::size_t>(c.z) * ny +
                                     static_cast<std::size_t>(c.y)) *
                                        nx +
                                    static_cast<std::size_t>(c.x)];
                          }
                          const std::lock_guard<std::mutex> lock(merge_mutex);
                          for (std::size_t c = 0; c < cells; ++c) histogram[c] += local[c];
                        },
                        1 << 16);
  }

  // 3D summed-area table, dims (nx+1)(ny+1)(nz+1):
  // sat(x,y,z) = #points in cells [0,x) × [0,y) × [0,z).
  // Built as three separable prefix-sum passes, each parallel over the
  // untouched dimensions.
  sat_.assign((nx + 1) * (ny + 1) * (nz + 1), 0);
  const std::size_t sx = nx + 1;
  const std::size_t sy = ny + 1;
  auto sat_index = [&](std::size_t x, std::size_t y, std::size_t z) {
    return (z * sy + y) * sx + x;
  };
  // Seed with the histogram shifted by (1,1,1).
  parallel_for(0, static_cast<std::int64_t>(nz), [&](std::int64_t z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        sat_[sat_index(x + 1, y + 1, static_cast<std::size_t>(z) + 1)] =
            histogram[((static_cast<std::size_t>(z)) * ny + y) * nx + x];
      }
    }
  }, 1);
  // Prefix along x.
  parallel_for(0, static_cast<std::int64_t>(nz + 1), [&](std::int64_t z) {
    for (std::size_t y = 0; y <= ny; ++y) {
      std::uint64_t run = 0;
      for (std::size_t x = 0; x <= nx; ++x) {
        run += sat_[sat_index(x, y, static_cast<std::size_t>(z))];
        sat_[sat_index(x, y, static_cast<std::size_t>(z))] = run;
      }
    }
  }, 1);
  // Prefix along y.
  parallel_for(0, static_cast<std::int64_t>(nz + 1), [&](std::int64_t z) {
    for (std::size_t x = 0; x <= nx; ++x) {
      std::uint64_t run = 0;
      for (std::size_t y = 0; y <= ny; ++y) {
        run += sat_[sat_index(x, y, static_cast<std::size_t>(z))];
        sat_[sat_index(x, y, static_cast<std::size_t>(z))] = run;
      }
    }
  }, 1);
  // Prefix along z.
  parallel_for(0, static_cast<std::int64_t>(ny + 1), [&](std::int64_t y) {
    for (std::size_t x = 0; x <= nx; ++x) {
      std::uint64_t run = 0;
      for (std::size_t z = 0; z <= nz; ++z) {
        run += sat_[sat_index(x, static_cast<std::size_t>(y), z)];
        sat_[sat_index(x, static_cast<std::size_t>(y), z)] = run;
      }
    }
  }, 1);
}

Int3 GridIndex::cell_of(const Vec3& p) const {
  Int3 c;
  for (int axis = 0; axis < 3; ++axis) {
    c[axis] = clamp_cell((p[axis] - bounds_.lo[axis]) / cell_size_, res_[axis]);
  }
  return c;
}

std::uint64_t GridIndex::count_in_box(Int3 lo, Int3 hi) const {
  for (int axis = 0; axis < 3; ++axis) {
    lo[axis] = std::max(lo[axis], 0);
    hi[axis] = std::min(hi[axis], res_[axis] - 1);
    if (lo[axis] > hi[axis]) return 0;
  }
  const int x0 = lo.x, y0 = lo.y, z0 = lo.z;
  const int x1 = hi.x + 1, y1 = hi.y + 1, z1 = hi.z + 1;
  return sat_at(x1, y1, z1) - sat_at(x0, y1, z1) - sat_at(x1, y0, z1) - sat_at(x1, y1, z0) +
         sat_at(x0, y0, z1) + sat_at(x0, y1, z0) + sat_at(x1, y0, z0) - sat_at(x0, y0, z0);
}

std::uint64_t GridIndex::total() const {
  return sat_at(res_.x, res_.y, res_.z);
}

}  // namespace rtnn
