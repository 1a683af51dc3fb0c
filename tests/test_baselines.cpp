#include <gtest/gtest.h>

#include <tuple>

#include "baselines/brute_force.hpp"
#include "baselines/grid_knn.hpp"
#include "baselines/grid_search.hpp"
#include "baselines/octree.hpp"
#include "core/rng.hpp"
#include "datasets/point_cloud.hpp"
#include "test_util.hpp"

namespace rtnn::baselines {
namespace {

using testing::CloudKind;

// (dataset, #points, radius scale, K)
using BaselineCase = std::tuple<CloudKind, int, float, int>;

class BaselineCorrectness : public ::testing::TestWithParam<BaselineCase> {
 protected:
  void SetUp() override {
    const auto [kind, n, r_scale, k] = GetParam();
    kind_ = kind;
    points_ = testing::make_cloud(kind, static_cast<std::size_t>(n), 42);
    queries_ = data::jittered_queries(points_, 300, testing::typical_radius(kind) * 0.3f,
                                      7);
    radius_ = testing::typical_radius(kind) * r_scale;
    k_ = static_cast<std::uint32_t>(k);
  }

  CloudKind kind_{};
  std::vector<Vec3> points_;
  std::vector<Vec3> queries_;
  float radius_ = 0.0f;
  std::uint32_t k_ = 0;
};

TEST_P(BaselineCorrectness, GridRangeMatchesBruteForceCounts) {
  // Range search with bounded K: counts must match; the *choice* of K
  // among >K candidates is implementation-defined, so compare sets only
  // when no query saturates.
  const auto expected = brute_force_range(points_, queries_, radius_, k_);
  GridRangeSearch grid;
  grid.build(points_, radius_);
  const auto got = grid.search(queries_, k_);
  testing::expect_counts_equal(got, expected, "grid-range");
  testing::expect_all_within_radius(points_, queries_, got, radius_, "grid-range");
}

TEST_P(BaselineCorrectness, GridRangeExactSetsWhenUnsaturated) {
  // With K far above the neighbor count, the returned sets are unique.
  const std::uint32_t big_k = 512;
  const auto expected = brute_force_range(points_, queries_, radius_, big_k);
  bool saturated = false;
  for (std::size_t q = 0; q < expected.num_queries(); ++q) {
    saturated |= (expected.count(q) == big_k);
  }
  if (saturated) GTEST_SKIP() << "radius too large for exact-set comparison";
  GridRangeSearch grid;
  grid.build(points_, radius_);
  const auto got = grid.search(queries_, big_k);
  testing::expect_same_neighbor_sets(got, expected, "grid-range-sets");
}

TEST_P(BaselineCorrectness, GridKnnMatchesBruteForce) {
  const auto expected = brute_force_knn(points_, queries_, radius_, k_);
  GridKnn grid;
  grid.build(points_, radius_);
  const auto got = grid.search(queries_, k_);
  testing::expect_knn_identical(got, expected, "grid-knn");
}

TEST_P(BaselineCorrectness, OctreeRangeMatchesBruteForceCounts) {
  const auto expected = brute_force_range(points_, queries_, radius_, k_);
  Octree octree;
  octree.build(points_);
  const auto got = octree.range_search(queries_, radius_, k_);
  testing::expect_counts_equal(got, expected, "octree-range");
  testing::expect_all_within_radius(points_, queries_, got, radius_, "octree-range");
}

TEST_P(BaselineCorrectness, OctreeKnnMatchesBruteForce) {
  const auto expected = brute_force_knn(points_, queries_, radius_, k_);
  Octree octree;
  octree.build(points_);
  const auto got = octree.knn_search(queries_, radius_, k_);
  testing::expect_knn_identical(got, expected, "octree-knn");
}

TEST_P(BaselineCorrectness, OctreeStructureValid) {
  Octree octree;
  octree.build(points_);
  octree.validate();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineCorrectness,
    ::testing::Values(
        BaselineCase{CloudKind::kUniform, 4000, 1.0f, 8},
        BaselineCase{CloudKind::kUniform, 4000, 2.5f, 16},
        BaselineCase{CloudKind::kUniform, 500, 0.5f, 4},
        BaselineCase{CloudKind::kLidar, 6000, 1.0f, 8},
        BaselineCase{CloudKind::kLidar, 6000, 0.4f, 1},
        BaselineCase{CloudKind::kSurface, 5000, 1.0f, 8},
        BaselineCase{CloudKind::kSurface, 5000, 3.0f, 32},
        BaselineCase{CloudKind::kNBody, 5000, 1.0f, 8},
        BaselineCase{CloudKind::kNBody, 5000, 0.3f, 2}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return testing::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 10)) + "_k" +
             std::to_string(std::get<3>(info.param));
    });

TEST(BaselineEdgeCases, SinglePointCloud) {
  const std::vector<Vec3> points{{0.5f, 0.5f, 0.5f}};
  const std::vector<Vec3> queries{{0.5f, 0.5f, 0.5f}, {10.0f, 0.0f, 0.0f}};
  GridRangeSearch grid;
  grid.build(points, 0.1f);
  const auto got = grid.search(queries, 4);
  EXPECT_EQ(got.count(0), 1u);
  EXPECT_EQ(got.count(1), 0u);

  Octree octree;
  octree.build(points);
  const auto knn = octree.knn_search(queries, 0.1f, 4);
  EXPECT_EQ(knn.count(0), 1u);
  EXPECT_EQ(knn.count(1), 0u);
}

TEST(BaselineEdgeCases, QueryOnDuplicatePoints) {
  // 50 coincident points: range must cap at K, KNN must return exactly K.
  std::vector<Vec3> points(50, Vec3{0.3f, 0.3f, 0.3f});
  const std::vector<Vec3> queries{{0.3f, 0.3f, 0.3f}};
  GridKnn grid;
  grid.build(points, 0.1f);
  const auto knn = grid.search(queries, 8);
  EXPECT_EQ(knn.count(0), 8u);

  GridRangeSearch range;
  range.build(points, 0.1f);
  EXPECT_EQ(range.search(queries, 8).count(0), 8u);
}

TEST(BaselineEdgeCases, KnnRadiusBoundExcludesFarPoints) {
  // Points at distance 1 and 2; radius 1.5 must exclude the far one even
  // with K = 2.
  const std::vector<Vec3> points{{1.0f, 0.0f, 0.0f}, {2.0f, 0.0f, 0.0f}};
  const std::vector<Vec3> queries{{0.0f, 0.0f, 0.0f}};
  Octree octree;
  octree.build(points);
  const auto knn = octree.knn_search(queries, 1.5f, 2);
  ASSERT_EQ(knn.count(0), 1u);
  EXPECT_EQ(knn.neighbors(0)[0], 0u);

  GridKnn grid;
  grid.build(points, 1.5f);
  const auto grid_knn = grid.search(queries, 2);
  ASSERT_EQ(grid_knn.count(0), 1u);
  EXPECT_EQ(grid_knn.neighbors(0)[0], 0u);
}

TEST(BaselineEdgeCases, GridsMatchBruteForceWithOneFarOutlier) {
  // One finite point at x = 3e38: at the search radius's cell size the
  // x resolution is ~3e39 cells, past every integer type. The grids
  // coarsen the cell until the count fits instead of casting the
  // overflow, and still answer exactly.
  Pcg32 rng(7);
  std::vector<Vec3> points(2000);
  for (auto& p : points) p = rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}});
  points[1234].x = 3e38f;
  std::vector<Vec3> queries(200);
  for (auto& q : queries) q = rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}});
  queries.push_back(points[1234]);
  constexpr float kRadius = 0.05f;

  GridRangeSearch range;
  range.build(points, kRadius);
  const auto want_range = brute_force_range(points, queries, kRadius, 64);
  const auto got_range = range.search(queries, 64);
  testing::expect_same_neighbor_sets(got_range, want_range, "grid range");

  GridKnn knn;
  knn.build(points, kRadius);
  testing::expect_knn_identical(knn.search(queries, 8),
                                brute_force_knn(points, queries, kRadius, 8), "grid knn");
}

TEST(BaselineEdgeCases, BruteForceKnnSortedAscending) {
  Pcg32 rng(1);
  std::vector<Vec3> points(100);
  for (auto& p : points) p = rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}});
  const std::vector<Vec3> queries{{0.5f, 0.5f, 0.5f}};
  const auto knn = brute_force_knn(points, queries, 1.0f, 10);
  const auto row = knn.neighbors(0);
  for (std::size_t i = 1; i < row.size(); ++i) {
    EXPECT_LE(distance2(points[row[i - 1]], queries[0]),
              distance2(points[row[i]], queries[0]));
  }
}

}  // namespace
}  // namespace rtnn::baselines
