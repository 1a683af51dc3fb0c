#include "rtnn/partitioner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "core/rng.hpp"
#include "datasets/point_cloud.hpp"
#include "test_util.hpp"

namespace rtnn {
namespace {

constexpr float kSqrt3 = 1.7320508f;

struct PartitionerFixture : ::testing::Test {
  void init(testing::CloudKind kind, std::size_t n, float radius, std::uint32_t k,
            SearchMode mode = SearchMode::kKnn) {
    points = testing::make_cloud(kind, n, 5);
    queries = data::jittered_queries(points, 1000, radius * 0.2f, 6);
    params.mode = mode;
    params.radius = radius;
    params.k = k;
    params.max_grid_cells = 1 << 18;
    grid.build(points, params.max_grid_cells);
    order.resize(queries.size());
    std::iota(order.begin(), order.end(), 0u);
  }

  std::vector<Vec3> points;
  std::vector<Vec3> queries;
  SearchParams params;
  GridIndex grid;
  std::vector<std::uint32_t> order;
};

TEST_F(PartitionerFixture, EveryQueryInExactlyOnePartition) {
  init(testing::CloudKind::kUniform, 8000, 0.08f, 8);
  const PartitionSet set = partition_queries(grid, queries, order, params);
  std::set<std::uint32_t> seen;
  std::size_t total = 0;
  for (const Partition& p : set.partitions) {
    total += p.query_ids.size();
    for (const std::uint32_t q : p.query_ids) {
      EXPECT_TRUE(seen.insert(q).second) << "query in two partitions";
    }
  }
  EXPECT_EQ(total, queries.size());
}

TEST_F(PartitionerFixture, MegacellWidthsAreOddCellMultiples) {
  init(testing::CloudKind::kUniform, 8000, 0.08f, 8);
  const PartitionSet set = partition_queries(grid, queries, order, params);
  for (const Partition& p : set.partitions) {
    const float expected = (2.0f * static_cast<float>(p.steps) + 1.0f) * set.cell_size;
    EXPECT_FLOAT_EQ(p.megacell_width, expected);
  }
}

TEST_F(PartitionerFixture, AabbWidthsNeverExceedBaseline) {
  // 2r is the naive width; partitioning exists to shrink it (section 5.1).
  for (const SearchMode mode : {SearchMode::kRange, SearchMode::kKnn}) {
    init(testing::CloudKind::kUniform, 8000, 0.08f, 8, mode);
    const PartitionSet set = partition_queries(grid, queries, order, params);
    for (const Partition& p : set.partitions) {
      EXPECT_LE(p.aabb_width, 2.0f * params.radius * (1.0f + 1e-5f));
      EXPECT_GT(p.aabb_width, 0.0f);
    }
  }
}

TEST_F(PartitionerFixture, RangeSkipSphereTestImpliesContainment) {
  // Dense configuration (small K, fine grid) so small megacells that fit
  // strictly inside the sphere actually occur.
  init(testing::CloudKind::kUniform, 30000, 0.08f, 4, SearchMode::kRange);
  params.max_grid_cells = 1 << 21;
  grid.build(points, params.max_grid_cells);
  const PartitionSet set = partition_queries(grid, queries, order, params);
  bool any_skip = false;
  for (const Partition& p : set.partitions) {
    if (p.skip_sphere_test) {
      any_skip = true;
      // The guarantee: a point whose AABB contains the query is within r.
      EXPECT_LE(p.aabb_width * kSqrt3 * 0.5f, params.radius * (1.0f + 1e-5f));
    }
  }
  // Dense uniform cloud with K=8: small megacells dominate, so the
  // fast path must actually engage.
  EXPECT_TRUE(any_skip);
}

TEST_F(PartitionerFixture, KnnNeverSkipsSphereTest) {
  init(testing::CloudKind::kUniform, 8000, 0.08f, 8, SearchMode::kKnn);
  const PartitionSet set = partition_queries(grid, queries, order, params);
  for (const Partition& p : set.partitions) {
    EXPECT_FALSE(p.skip_sphere_test);
  }
}

TEST_F(PartitionerFixture, SparseRegionsHitSphereLimit) {
  // Tiny radius: megacells cannot reach K points, so queries land in the
  // hit-limit partition with the fallback width 2r.
  init(testing::CloudKind::kUniform, 2000, 0.004f, 64, SearchMode::kKnn);
  const PartitionSet set = partition_queries(grid, queries, order, params);
  ASSERT_FALSE(set.partitions.empty());
  bool any_limit = false;
  for (const Partition& p : set.partitions) {
    if (p.hit_sphere_limit) {
      any_limit = true;
      EXPECT_FLOAT_EQ(p.aabb_width, 2.0f * params.radius);
    }
  }
  EXPECT_TRUE(any_limit);
}

TEST_F(PartitionerFixture, ClusteredDataProducesMorePartitions) {
  // The paper's NBody observation: non-uniform density ⇒ queries need
  // different megacell sizes ⇒ many partitions (Figures 12/13).
  init(testing::CloudKind::kUniform, 20000, 0.3f, 16);
  const std::size_t uniform_parts =
      partition_queries(grid, queries, order, params).partitions.size();

  init(testing::CloudKind::kNBody, 20000, 2.0f, 16);
  const std::size_t nbody_parts =
      partition_queries(grid, queries, order, params).partitions.size();
  EXPECT_GT(nbody_parts, uniform_parts);
}

TEST_F(PartitionerFixture, InverseCorrelationBetweenSizeAndCount) {
  // Figure 16's empirical premise (needed by the bundling theorem):
  // partitions with larger AABBs hold fewer queries. Verified as a rank
  // correlation over the produced partitions.
  init(testing::CloudKind::kNBody, 30000, 1.5f, 16);
  PartitionSet set = partition_queries(grid, queries, order, params);
  if (set.partitions.size() < 4) GTEST_SKIP() << "too few partitions to correlate";
  double concordant = 0, discordant = 0;
  for (std::size_t i = 0; i < set.partitions.size(); ++i) {
    for (std::size_t j = i + 1; j < set.partitions.size(); ++j) {
      const auto& a = set.partitions[i];
      const auto& b = set.partitions[j];
      const double dw = static_cast<double>(a.aabb_width) - b.aabb_width;
      const double dn = static_cast<double>(a.query_ids.size()) -
                        static_cast<double>(b.query_ids.size());
      if (dw * dn < 0) ++concordant;  // larger width ↔ fewer queries
      if (dw * dn > 0) ++discordant;
    }
  }
  EXPECT_GT(concordant, discordant);
}

TEST_F(PartitionerFixture, ScheduledOrderPreservedWithinPartitions) {
  init(testing::CloudKind::kUniform, 8000, 0.08f, 8);
  // Custom order: reversed.
  std::vector<std::uint32_t> reversed(order.rbegin(), order.rend());
  const PartitionSet set = partition_queries(grid, queries, reversed, params);
  for (const Partition& p : set.partitions) {
    for (std::size_t i = 1; i < p.query_ids.size(); ++i) {
      // Within a partition, ids appear in the same relative order as in
      // `reversed` (descending here).
      EXPECT_GT(p.query_ids[i - 1], p.query_ids[i]);
    }
  }
}

TEST(KnnAabbWidth, IsTheMegacellCircumsphereDiameter) {
  // √3·a: the sphere around a cube of width a, which holds its K points.
  EXPECT_NEAR(knn_aabb_width(1.0f), std::sqrt(3.0f), 1e-5f);
  EXPECT_NEAR(knn_aabb_width(2.0f), 2.0f * std::sqrt(3.0f), 1e-5f);
}

}  // namespace
}  // namespace rtnn
