// Cross-module integration tests: the full RTNN system against every
// baseline on every dataset family, plus end-to-end properties the paper's
// evaluation relies on (speedup mechanisms, ablation orderings, oracle
// search machinery).
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/brute_force.hpp"
#include "baselines/grid_search.hpp"
#include "baselines/octree.hpp"
#include "datasets/point_cloud.hpp"
#include "engine/backends.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/rtnn.hpp"
#include "rtnn/scheduler.hpp"
#include "test_util.hpp"

namespace rtnn {
namespace {

using testing::CloudKind;

class FullSystem : public ::testing::TestWithParam<CloudKind> {
 protected:
  void SetUp() override {
    kind_ = GetParam();
    points_ = testing::make_cloud(kind_, 10'000, 101);
    queries_ = data::jittered_queries(points_, 500, testing::typical_radius(kind_) * 0.2f,
                                      102);
    radius_ = testing::typical_radius(kind_);
    k_ = 8;
  }

  CloudKind kind_{};
  std::vector<Vec3> points_;
  std::vector<Vec3> queries_;
  float radius_ = 0.0f;
  std::uint32_t k_ = 8;
};

TEST_P(FullSystem, AllKnnImplementationsAgree) {
  const auto expected = baselines::brute_force_knn(points_, queries_, radius_, k_);

  baselines::GridRangeSearch grid;
  grid.build(points_, radius_);
  testing::expect_knn_identical(grid.knn_search(queries_, k_), expected, "grid");

  baselines::Octree octree;
  octree.build(points_);
  testing::expect_knn_identical(octree.knn_search(queries_, radius_, k_), expected, "octree");

  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = radius_;
  params.k = k_;
  engine::FastRnnBackend fastrnn;
  fastrnn.set_points(points_);
  testing::expect_knn_identical(fastrnn.search(queries_, params, nullptr), expected,
                                "fastrnn");

  NeighborSearch rtnn_search;
  rtnn_search.set_points(points_);
  testing::expect_knn_identical(rtnn_search.search(queries_, params), expected, "rtnn");
}

TEST_P(FullSystem, AllRangeImplementationsAgreeOnCounts) {
  const auto expected = baselines::brute_force_range(points_, queries_, radius_, k_);

  baselines::GridRangeSearch grid;
  grid.build(points_, radius_);
  testing::expect_counts_equal(grid.range_search(queries_, k_), expected, "grid");

  baselines::Octree octree;
  octree.build(points_);
  testing::expect_counts_equal(octree.range_search(queries_, radius_, k_), expected,
                               "octree");

  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = radius_;
  params.k = k_;
  params.opts = OptimizationFlags::scheduling_only();  // exact configuration
  NeighborSearch rtnn_search;
  rtnn_search.set_points(points_);
  testing::expect_counts_equal(rtnn_search.search(queries_, params), expected, "rtnn");
}

TEST_P(FullSystem, SchedulingReducesSimtDivergence) {
  // Mechanism check: launched warp-lockstep in the scheduler's order, the
  // range search must diverge less (higher occupancy, fewer serialized
  // sub-steps) than in the shuffled input order.
  auto shuffled = queries_;
  data::shuffle(shuffled, 103);
  std::vector<Aabb> boxes(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    boxes[i] = Aabb::cube(points_[i], 2.0f * radius_);
  }
  rt::Bvh bvh;
  bvh.build(boxes);
  auto lockstep = [&](std::span<const std::uint32_t> order) {
    NeighborResult result(shuffled.size(), k_, /*store_indices=*/true);
    pipelines::RangePipeline pipeline(points_, shuffled, order, radius_, k_,
                                      /*skip_sphere_test=*/false, result);
    rt::TraceConfig config;
    config.model = rt::ExecutionModel::kWarpLockstep;
    return ox::launch(bvh, pipeline, static_cast<std::uint32_t>(order.size()), config);
  };
  std::vector<std::uint32_t> input_order(shuffled.size());
  std::iota(input_order.begin(), input_order.end(), 0u);
  const rt::LaunchStats unsched = lockstep(input_order);
  const rt::LaunchStats sched = lockstep(schedule_queries(shuffled).order);
  EXPECT_GT(sched.occupancy(), unsched.occupancy());
  EXPECT_LT(sched.warp_substeps, unsched.warp_substeps);
}

TEST_P(FullSystem, PartitioningReducesIsCalls) {
  // The whole point of section 5: smaller per-partition AABBs suppress
  // IS-shader work for KNN.
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = radius_ * 2.0f;  // generous radius so partitioning has room
  params.k = k_;
  NeighborSearch search;
  search.set_points(points_);

  params.opts = OptimizationFlags::scheduling_only();
  NeighborSearch::Report unpart;
  search.search(queries_, params, &unpart);

  params.opts = OptimizationFlags::no_bundling();
  NeighborSearch::Report part;
  search.search(queries_, params, &part);

  EXPECT_LT(part.stats.is_calls, unpart.stats.is_calls);
}

INSTANTIATE_TEST_SUITE_P(Clouds, FullSystem,
                         ::testing::Values(CloudKind::kUniform, CloudKind::kLidar,
                                           CloudKind::kSurface, CloudKind::kNBody),
                         [](const ::testing::TestParamInfo<CloudKind>& info) {
                           return testing::to_string(info.param);
                         });

TEST(OracleMachinery, SearchWithExplicitPlanMatchesDefault) {
  // search_with_plan() is the Oracle's entry point: running the default
  // plan through it must reproduce search()'s results, exact and
  // approximate (aabb_scale shrinks the plan's widths as it does
  // search()'s own).
  const auto points = testing::make_cloud(CloudKind::kUniform, 6000, 201);
  const auto queries = data::jittered_queries(points, 400, 0.01f, 202);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.1f;
  params.k = 8;
  params.opts = OptimizationFlags::no_bundling();
  NeighborSearch search;
  search.set_points(points);
  std::vector<std::uint32_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0u);
  for (const float scale : {1.0f, 0.6f}) {
    SCOPED_TRACE(scale);
    params.aabb_scale = scale;
    const auto via_search = search.search(queries, params);
    const PartitionSet parts = search.partition(queries, order, params);
    const BundlePlan plan = unbundled_plan(parts, params);
    const auto via_plan = search.search_with_plan(queries, params, parts, plan);
    testing::expect_knn_identical(via_plan, via_search, "oracle");
  }
}

TEST(OracleMachinery, SingleBundlePlanStillCorrect) {
  // Merging everything into one bundle = monolithic BVH with the largest
  // partition width; every partition's width is exact, so the merged one
  // is too.
  const auto points = testing::make_cloud(CloudKind::kNBody, 6000, 203);
  const auto queries = data::jittered_queries(points, 300, 0.05f, 204);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 1.0f;
  params.k = 8;
  NeighborSearch search;
  search.set_points(points);
  std::vector<std::uint32_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0u);
  const PartitionSet parts = search.partition(queries, order, params);
  // Build the all-in-one plan.
  CostModel model;
  model.k1 = 1.0;
  model.k2 = 1e-15;
  const BundlePlan plan = plan_bundles(parts, points.size(), params, model);
  ASSERT_EQ(plan.bundles.size(), 1u);
  const auto got = search.search_with_plan(queries, params, parts, plan);
  const auto expected = baselines::brute_force_knn(points, queries, 1.0f, 8);
  testing::expect_knn_identical(got, expected, "single bundle");
}

TEST(EndToEnd, LargeUniformSelfQueryStress) {
  // Self-neighborhood query on a bigger cloud exercises parallel paths.
  const auto points = testing::make_cloud(CloudKind::kUniform, 50'000, 301);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.03f;
  params.k = 8;
  NeighborSearch search;
  search.set_points(points);
  const auto result = search.search(points, params);
  // Every point finds itself (distance 0) plus neighbors.
  std::size_t with_self = 0;
  for (std::size_t q = 0; q < points.size(); ++q) {
    if (result.count(q) > 0) ++with_self;
  }
  EXPECT_EQ(with_self, points.size());
}

}  // namespace
}  // namespace rtnn
