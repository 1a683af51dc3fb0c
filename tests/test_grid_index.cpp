#include "rtnn/grid_index.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"

namespace rtnn {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed,
                                const Aabb& box = {{0, 0, 0}, {1, 1, 1}}) {
  Pcg32 rng(seed);
  std::vector<Vec3> points(n);
  for (auto& p : points) p = rng.uniform_in_aabb(box);
  return points;
}

// Direct per-point count of how many fall in the cell box [lo, hi].
std::uint64_t direct_count(const GridIndex& grid, const std::vector<Vec3>& points,
                           Int3 lo, Int3 hi) {
  std::uint64_t count = 0;
  for (const Vec3& p : points) {
    const Int3 c = grid.cell_of(p);
    if (c.x >= lo.x && c.x <= hi.x && c.y >= lo.y && c.y <= hi.y && c.z >= lo.z &&
        c.z <= hi.z) {
      ++count;
    }
  }
  return count;
}

TEST(GridIndex, TotalMatchesPointCount) {
  const auto points = random_points(5'000, 1);
  GridIndex grid;
  grid.build(points, 1 << 15);
  EXPECT_EQ(grid.total(), points.size());
}

TEST(GridIndex, ResolutionRespectsMaxCells) {
  const auto points = random_points(1'000, 2);
  for (const std::uint64_t max_cells : {64ull, 4096ull, 1ull << 18}) {
    GridIndex grid;
    grid.build(points, max_cells);
    const Int3 r = grid.resolution();
    EXPECT_LE(static_cast<std::uint64_t>(r.x) * r.y * r.z, max_cells);
  }
}

TEST(GridIndex, SatMatchesDirectCountsOnRandomBoxes) {
  const auto points = random_points(20'000, 3);
  GridIndex grid;
  grid.build(points, 1 << 15);
  const Int3 res = grid.resolution();
  Pcg32 rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    Int3 lo{static_cast<int>(rng.next_bounded(res.x)),
            static_cast<int>(rng.next_bounded(res.y)),
            static_cast<int>(rng.next_bounded(res.z))};
    Int3 hi{lo.x + static_cast<int>(rng.next_bounded(res.x - lo.x)),
            lo.y + static_cast<int>(rng.next_bounded(res.y - lo.y)),
            lo.z + static_cast<int>(rng.next_bounded(res.z - lo.z))};
    EXPECT_EQ(grid.count_in_box(lo, hi), direct_count(grid, points, lo, hi));
  }
}

/// Counting is one shared histogram under relaxed atomic increments, so
/// it must give the serial counts whatever the thread interleaving: a
/// clustered cloud (many points racing into each cell) on four threads,
/// every cell count and every prefix-box (SAT) entry against a serial
/// reference built from cell_of.
TEST(GridIndex, CountsAndSatMatchSerialReference) {
  std::vector<Vec3> points = random_points(60'000, 5, {{0, 0, 0}, {0.1f, 0.1f, 0.1f}});
  const std::vector<Vec3> spread = random_points(40'000, 6);
  points.insert(points.end(), spread.begin(), spread.end());
  const int threads_before = num_threads();
  set_num_threads(4);
  GridIndex grid;
  grid.build(points, 4096);
  set_num_threads(threads_before);

  const Int3 res = grid.resolution();
  const auto nx = static_cast<std::size_t>(res.x);
  const auto ny = static_cast<std::size_t>(res.y);
  const auto nz = static_cast<std::size_t>(res.z);
  const auto cell = [&](std::size_t x, std::size_t y, std::size_t z) {
    return (z * ny + y) * nx + x;
  };
  std::vector<std::uint64_t> counts(nx * ny * nz, 0);
  for (const Vec3& p : points) {
    const Int3 c = grid.cell_of(p);
    ++counts[cell(static_cast<std::size_t>(c.x), static_cast<std::size_t>(c.y),
                  static_cast<std::size_t>(c.z))];
  }
  // sat[x][y][z] = points in cells [0, x] × [0, y] × [0, z].
  std::vector<std::uint64_t> sat(counts.size(), 0);
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        std::uint64_t v = counts[cell(x, y, z)];
        if (x > 0) v += sat[cell(x - 1, y, z)];
        if (y > 0) v += sat[cell(x, y - 1, z)];
        if (z > 0) v += sat[cell(x, y, z - 1)];
        if (x > 0 && y > 0) v -= sat[cell(x - 1, y - 1, z)];
        if (x > 0 && z > 0) v -= sat[cell(x - 1, y, z - 1)];
        if (y > 0 && z > 0) v -= sat[cell(x, y - 1, z - 1)];
        if (x > 0 && y > 0 && z > 0) v += sat[cell(x - 1, y - 1, z - 1)];
        sat[cell(x, y, z)] = v;
      }
    }
  }
  for (int z = 0; z < res.z; ++z) {
    for (int y = 0; y < res.y; ++y) {
      for (int x = 0; x < res.x; ++x) {
        const std::size_t c = cell(static_cast<std::size_t>(x), static_cast<std::size_t>(y),
                                   static_cast<std::size_t>(z));
        ASSERT_EQ(grid.count_in_box({x, y, z}, {x, y, z}), counts[c])
            << "cell " << x << "," << y << "," << z;
        ASSERT_EQ(grid.count_in_box({0, 0, 0}, {x, y, z}), sat[c])
            << "prefix " << x << "," << y << "," << z;
      }
    }
  }
  EXPECT_EQ(grid.total(), points.size());
}

TEST(GridIndex, FullBoxEqualsTotal) {
  const auto points = random_points(3'000, 4);
  GridIndex grid;
  grid.build(points, 1 << 12);
  const Int3 res = grid.resolution();
  EXPECT_EQ(grid.count_in_box({0, 0, 0}, {res.x - 1, res.y - 1, res.z - 1}),
            points.size());
}

TEST(GridIndex, OutOfRangeBoxesClampOrVanish) {
  const auto points = random_points(1'000, 5);
  GridIndex grid;
  grid.build(points, 1 << 12);
  const Int3 res = grid.resolution();
  // Clamping: an oversized box equals the full grid.
  EXPECT_EQ(grid.count_in_box({-10, -10, -10}, {res.x + 10, res.y + 10, res.z + 10}),
            points.size());
  // Fully outside: zero.
  EXPECT_EQ(grid.count_in_box({res.x, 0, 0}, {res.x + 5, 5, 5}), 0u);
  // Inverted after clamp: zero.
  EXPECT_EQ(grid.count_in_box({5, 5, 5}, {2, 2, 2}), 0u);
}

TEST(GridIndex, CellOfClampsOutOfBoundsPoints) {
  const auto points = random_points(100, 6);
  GridIndex grid;
  grid.build(points, 1 << 12);
  const Int3 c = grid.cell_of({-100.0f, 0.5f, 200.0f});
  EXPECT_EQ(c.x, 0);
  EXPECT_EQ(c.z, grid.resolution().z - 1);
  // Coordinates whose cell index overflows int (3e9 and 1e30 over a unit
  // cloud), infinities and NaN: the clamp must happen before the cast.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const Int3 last = grid.resolution() - Int3{1, 1, 1};
  for (const float above : {3.0e9f, 1.0e30f, kInf}) {
    EXPECT_EQ(grid.cell_of({above, above, above}), last) << above;
  }
  for (const float below : {-1.0e30f, -kInf, std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_EQ(grid.cell_of({below, below, below}), Int3{}) << below;
  }
}

TEST(GridIndex, AnisotropicCloudGetsAnisotropicResolution) {
  // LiDAR-like thin-z cloud: z resolution should be far smaller than x/y
  // since cells are cubic.
  const auto points = random_points(5'000, 7, {{0, 0, 0}, {100, 100, 2}});
  GridIndex grid;
  grid.build(points, 1 << 15);
  const Int3 r = grid.resolution();
  EXPECT_LT(r.z, r.x / 4);
}

TEST(GridIndex, RejectsDegenerateInput) {
  GridIndex grid;
  EXPECT_THROW(grid.build({}, 1 << 12), Error);
  const auto points = random_points(10, 8);
  EXPECT_THROW(grid.build(points, 4), Error);
}

TEST(GridIndex, SinglePointCloud) {
  const std::vector<Vec3> points{{0.5f, 0.5f, 0.5f}};
  GridIndex grid;
  grid.build(points, 1 << 12);
  EXPECT_EQ(grid.total(), 1u);
  const Int3 c = grid.cell_of(points[0]);
  EXPECT_EQ(grid.count_in_box(c, c), 1u);
}

}  // namespace
}  // namespace rtnn
