#include "optix/optix.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/rng.hpp"
#include "datasets/point_cloud.hpp"
#include "rtnn/pipelines.hpp"
#include "test_util.hpp"

namespace rtnn::ox {
namespace {

struct TestScene {
  std::vector<Vec3> points;
  std::vector<Aabb> aabbs;
  Accel accel;
};

TestScene make_scene(std::size_t n, float width, std::uint64_t seed) {
  TestScene scene;
  Pcg32 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    scene.points.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));
    scene.aabbs.push_back(Aabb::cube(scene.points.back(), width));
  }
  const Context ctx;
  scene.accel = ctx.build_accel(scene.aabbs);
  return scene;
}

// Minimal pipeline: counts IS invocations per ray.
struct CountingPipeline {
  std::vector<Vec3> queries;
  std::vector<std::uint32_t> counts;
  Ray raygen(std::uint32_t i) const { return Ray::short_ray(queries[i]); }
  TraceAction intersection(std::uint32_t ray, std::uint32_t) {
    ++counts[ray];
    return TraceAction::kContinue;
  }
};

static_assert(PipelineShaders<CountingPipeline>);

TEST(Optix, AccelBuildSnapshotsGeometry) {
  TestScene scene = make_scene(100, 0.05f, 1);
  EXPECT_TRUE(scene.accel.built());
  EXPECT_EQ(scene.accel.prim_count(), 100u);
  // Mutating the source AABBs must not affect the accel (snapshot
  // semantics, like a GPU build).
  const Aabb before = testing::prim_box(scene.accel.wide_bvh(), 0);
  ASSERT_EQ(before, scene.aabbs[0]);
  scene.aabbs[0] = Aabb::cube({100, 100, 100}, 1.0f);
  EXPECT_EQ(testing::prim_box(scene.accel.wide_bvh(), 0), before);
}

TEST(Optix, LaunchRunsEveryIndex) {
  TestScene scene = make_scene(500, 0.1f, 2);
  Pcg32 rng(2);
  CountingPipeline pipeline;
  for (int i = 0; i < 100; ++i) {
    pipeline.queries.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));
  }
  pipeline.counts.assign(pipeline.queries.size(), 0);
  const auto stats = launch(scene.accel, pipeline, 100);
  EXPECT_EQ(stats.rays, 100u);
  std::uint64_t total = 0;
  for (const auto c : pipeline.counts) total += c;
  EXPECT_EQ(total, stats.is_calls);
}

TEST(Optix, LaunchAgainstUnbuiltAccelThrows) {
  Accel accel;
  CountingPipeline pipeline;
  pipeline.queries = {Vec3{0, 0, 0}};
  pipeline.counts.assign(1, 0);
  EXPECT_THROW(launch(accel, pipeline, 1), Error);
}

TEST(Optix, LockstepLaunchProducesWarpStats) {
  TestScene scene = make_scene(300, 0.1f, 4);
  rt::Bvh bvh;
  bvh.build(scene.aabbs);
  Pcg32 rng(4);
  CountingPipeline pipeline;
  for (int i = 0; i < 64; ++i) {
    pipeline.queries.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));
  }
  pipeline.counts.assign(pipeline.queries.size(), 0);
  rt::TraceConfig config;
  config.model = ExecutionModel::kWarpLockstep;
  const auto stats = launch(bvh, pipeline, 64, config);
  EXPECT_EQ(stats.warps, 2u);
  EXPECT_GT(stats.occupancy(), 0.0);
}

// The characterization launch answers like the production one: KNN rows
// of a lockstep launch over a caller-built binary tree match the wide
// launch of an accel over the same boxes, slot for slot.
TEST(Optix, LockstepKnnRowsMatchTheWideLaunch) {
  const std::vector<Vec3> points =
      testing::make_cloud(testing::CloudKind::kUniform, 2000, 13);
  const std::vector<Vec3> queries = data::jittered_queries(points, 150, 0.01f, 14);
  const float radius = 0.08f;
  const float width = 2.0f * radius;
  std::vector<Aabb> boxes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) boxes[i] = Aabb::cube(points[i], width);
  const Accel accel = Context().build_accel(boxes);
  rt::Bvh bvh;
  bvh.build(boxes);
  std::vector<std::uint32_t> ids(queries.size());
  std::iota(ids.begin(), ids.end(), 0u);
  const auto n = static_cast<std::uint32_t>(ids.size());

  FlatKnnHeaps wide_heaps(queries.size(), 8);
  pipelines::KnnPipeline wide(points, queries, ids, radius, wide_heaps, width);
  launch(accel, wide, n);
  FlatKnnHeaps lockstep_heaps(queries.size(), 8);
  pipelines::KnnPipeline lockstep(points, queries, ids, radius, lockstep_heaps, width);
  rt::TraceConfig config;
  config.model = ExecutionModel::kWarpLockstep;
  const LaunchStats stats = launch(bvh, lockstep, n, config);

  testing::expect_knn_identical(lockstep_heaps.extract(), wide_heaps.extract(), "lockstep");
  EXPECT_GT(stats.warps, 0u);
}

}  // namespace
}  // namespace rtnn::ox
