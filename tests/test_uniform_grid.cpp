#include "baselines/uniform_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace rtnn::baselines {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Vec3> points(n);
  for (auto& p : points) p = rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}});
  return points;
}

TEST(UniformGrid, EveryPointBinnedExactlyOnce) {
  const auto points = random_points(10'000, 1);
  UniformGrid grid;
  grid.build(points, 0.05f);
  std::set<std::uint32_t> seen;
  const Int3 res = grid.resolution();
  for (int z = 0; z < res.z; ++z) {
    for (int y = 0; y < res.y; ++y) {
      for (int x = 0; x < res.x; ++x) {
        for (const std::uint32_t p : grid.points_in_cell({x, y, z})) {
          EXPECT_TRUE(seen.insert(p).second) << "point binned twice";
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), points.size());
}

TEST(UniformGrid, PointsLandInTheirOwnCell) {
  const auto points = random_points(5'000, 2);
  UniformGrid grid;
  grid.build(points, 0.1f);
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    const Int3 c = grid.cell_of(points[i]);
    const auto cell_points = grid.points_in_cell(c);
    EXPECT_NE(std::find(cell_points.begin(), cell_points.end(), i), cell_points.end());
  }
}

TEST(UniformGrid, CellOfClampsHugeAndNonFiniteCoordinates) {
  // Coordinates whose cell index overflows int (3e9 and 1e30 over a unit
  // cloud), infinities and NaN: the clamp must happen before the cast.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const auto points = random_points(1'000, 6);
  UniformGrid grid;
  grid.build(points, 0.1f);
  const Int3 last = grid.resolution() - Int3{1, 1, 1};
  for (const float above : {3.0e9f, 1.0e30f, kInf}) {
    EXPECT_EQ(grid.cell_of({above, above, above}), last) << above;
  }
  for (const float below : {-1.0e30f, -kInf, std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_EQ(grid.cell_of({below, below, below}), Int3{}) << below;
  }
}

TEST(UniformGrid, CellSizeEnlargedUnderMemoryCap) {
  const auto points = random_points(1'000, 3);
  UniformGrid grid;
  grid.build(points, 0.001f, /*max_cells=*/4096);
  const Int3 res = grid.resolution();
  EXPECT_LE(static_cast<std::uint64_t>(res.x) * res.y * res.z, 4096u);
  EXPECT_GT(grid.cell_size(), 0.001f);
}

TEST(UniformGrid, ForEachCellInCoversSearchBox) {
  const auto points = random_points(2'000, 4);
  UniformGrid grid;
  grid.build(points, 0.07f);
  const Vec3 q{0.5f, 0.5f, 0.5f};
  const float r = 0.07f;
  const Aabb box{{q.x - r, q.y - r, q.z - r}, {q.x + r, q.y + r, q.z + r}};
  std::set<std::uint32_t> covered;
  grid.for_each_cell_in(box, [&](const Int3& c) {
    for (const std::uint32_t p : grid.points_in_cell(c)) covered.insert(p);
  });
  // Every point within r of q must be in a visited cell.
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    if (distance2(points[i], q) <= r * r) {
      EXPECT_TRUE(covered.count(i)) << "missed in-range point " << i;
    }
  }
}

TEST(UniformGrid, RejectsBadInput) {
  UniformGrid grid;
  EXPECT_THROW(grid.build({}, 0.1f), Error);
  const auto points = random_points(10, 5);
  EXPECT_THROW(grid.build(points, 0.0f), Error);
}

}  // namespace
}  // namespace rtnn::baselines
