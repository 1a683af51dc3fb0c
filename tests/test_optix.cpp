#include "optix/optix.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "core/failpoint.hpp"
#include "core/rng.hpp"

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

// Pipeline with all five shader stages.
struct FullPipeline {
  std::vector<Vec3> queries;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint8_t> closest_hit_called;
  std::vector<std::uint8_t> miss_called;
  Ray raygen(std::uint32_t i) const { return Ray::short_ray(queries[i]); }
  TraceAction intersection(std::uint32_t ray, std::uint32_t) {
    ++counts[ray];
    return TraceAction::kContinue;
  }
  void closest_hit(std::uint32_t ray) { closest_hit_called[ray] = 1; }
  void miss(std::uint32_t ray) { miss_called[ray] = 1; }
};

static_assert(PipelineShaders<CountingPipeline>);
static_assert(PipelineShaders<FullPipeline>);
static_assert(!HasClosestHit<CountingPipeline>);
static_assert(HasClosestHit<FullPipeline>);
static_assert(HasMiss<FullPipeline>);

TEST(Optix, AccelBuildSnapshotsGeometry) {
  TestScene scene = make_scene(100, 0.05f, 1);
  EXPECT_TRUE(scene.accel.built());
  EXPECT_EQ(scene.accel.prim_count(), 100u);
  EXPECT_GE(scene.accel.build_seconds(), 0.0);
  // Mutating the source AABBs must not affect the accel (snapshot
  // semantics, like a GPU build).
  const Aabb before = scene.accel.bvh().prim_aabbs()[0];
  scene.aabbs[0] = Aabb::cube({100, 100, 100}, 1.0f);
  EXPECT_EQ(scene.accel.bvh().prim_aabbs()[0], before);
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

TEST(Optix, ClosestHitAndMissDispatch) {
  // Queries inside the cloud trigger IS ⇒ CH; far-away queries trigger
  // Miss — the "Found a Hit?" branch of paper Figure 3.
  TestScene scene = make_scene(2000, 0.2f, 3);
  FullPipeline pipeline;
  pipeline.queries = {Vec3{0.5f, 0.5f, 0.5f}, Vec3{50.0f, 50.0f, 50.0f}};
  pipeline.counts.assign(2, 0);
  pipeline.closest_hit_called.assign(2, 0);
  pipeline.miss_called.assign(2, 0);
  launch(scene.accel, pipeline, 2);
  EXPECT_EQ(pipeline.closest_hit_called[0], 1);
  EXPECT_EQ(pipeline.miss_called[0], 0);
  EXPECT_EQ(pipeline.closest_hit_called[1], 0);
  EXPECT_EQ(pipeline.miss_called[1], 1);
}

TEST(Optix, LaunchAgainstUnbuiltAccelThrows) {
  Accel accel;
  CountingPipeline pipeline;
  pipeline.queries = {Vec3{0, 0, 0}};
  pipeline.counts.assign(1, 0);
  EXPECT_THROW(launch(accel, pipeline, 1), Error);
}

TEST(Optix, SimtLaunchOptionProducesWarpStats) {
  TestScene scene = make_scene(300, 0.1f, 4);
  Pcg32 rng(4);
  CountingPipeline pipeline;
  for (int i = 0; i < 64; ++i) {
    pipeline.queries.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));
  }
  pipeline.counts.assign(pipeline.queries.size(), 0);
  LaunchOptions options;
  options.model = ExecutionModel::kWarpLockstep;
  const auto stats = launch(scene.accel, pipeline, 64, options);
  EXPECT_EQ(stats.warps, 2u);
  EXPECT_GT(stats.occupancy(), 0.0);
}

// Records every primitive the IS shader sees, one row per ray (each ray
// writes only its own row, the CUDA contract).
struct HitPipeline {
  const std::vector<Vec3>* queries;
  std::vector<std::vector<std::uint32_t>> hits;
  Ray raygen(std::uint32_t i) const { return Ray::short_ray((*queries)[i]); }
  TraceAction intersection(std::uint32_t ray, std::uint32_t prim) {
    hits[ray].push_back(prim);
    return TraceAction::kContinue;
  }
};

struct LockstepRun {
  std::vector<std::vector<std::uint32_t>> hits;
  LaunchStats stats;
};

LockstepRun lockstep_launch(const Accel& accel, const std::vector<Vec3>& queries) {
  HitPipeline pipeline{&queries, std::vector<std::vector<std::uint32_t>>(queries.size())};
  LaunchOptions options;
  options.model = ExecutionModel::kWarpLockstep;
  options.parallel = false;  // the threads are the test's own
  LockstepRun run;
  run.stats = launch(accel, pipeline, static_cast<std::uint32_t>(queries.size()), options);
  run.hits = std::move(pipeline.hits);
  return run;
}

// The binary tree is built on demand. Threads making the first lockstep
// launch on one shared snapshot at once build it exactly once (the build
// site is stretched so the late threads queue on it) and see the hits and
// stats of a lockstep launch on a separately built accel; an accel that
// served only independent launches holds no binary tree.
TEST(Optix, LazyBinaryTreeBuildsOnceUnderConcurrentLockstepLaunches) {
  TestScene scene = make_scene(3000, 0.05f, 6);
  Pcg32 rng(6);
  std::vector<Vec3> queries;
  for (int i = 0; i < 200; ++i) queries.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));

  HitPipeline wide{&queries, std::vector<std::vector<std::uint32_t>>(queries.size())};
  launch(scene.accel, wide, static_cast<std::uint32_t>(queries.size()));
  EXPECT_FALSE(scene.accel.has_bvh()) << "independent launches walk the wide tree only";

  const LockstepRun reference = lockstep_launch(Context().build_accel(scene.aabbs), queries);
  ASSERT_GT(reference.stats.is_calls, 0u);

  fail::FailConfig stall;
  stall.action = fail::Action::kDelay;
  stall.delay = std::chrono::milliseconds(20);
  fail::ScopedFailpoint build_site("ox.accel.binary_build", stall);
  constexpr int kThreads = 4;
  const Accel shared = scene.accel;  // a snapshot handle on the same build product
  std::vector<LockstepRun> runs(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      runs[t] = lockstep_launch(shared, queries);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(build_site.hits(), 1u) << "the binary tree must be built once";
  EXPECT_TRUE(scene.accel.has_bvh()) << "snapshots share the built tree";
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(runs[t].hits, reference.hits) << "thread " << t;
    EXPECT_EQ(runs[t].stats.node_visits, reference.stats.node_visits) << "thread " << t;
    EXPECT_EQ(runs[t].stats.aabb_tests, reference.stats.aabb_tests) << "thread " << t;
    EXPECT_EQ(runs[t].stats.is_calls, reference.stats.is_calls) << "thread " << t;
    EXPECT_EQ(runs[t].stats.warps, reference.stats.warps) << "thread " << t;
    EXPECT_EQ(runs[t].stats.warp_iterations, reference.stats.warp_iterations)
        << "thread " << t;
    EXPECT_EQ(runs[t].stats.warp_substeps, reference.stats.warp_substeps) << "thread " << t;
    EXPECT_EQ(runs[t].stats.active_lane_slots, reference.stats.active_lane_slots)
        << "thread " << t;
  }
}

// A refit moves the boxes under a built binary tree: the refitted handle
// drops it and rebuilds over the moved boxes on demand.
TEST(Optix, RefitDropsTheBinaryTree) {
  TestScene scene = make_scene(500, 0.05f, 7);
  ASSERT_EQ(scene.accel.bvh().prim_aabbs()[3], scene.aabbs[3]);
  ASSERT_TRUE(scene.accel.has_bvh());
  scene.points[3] += Vec3{0.01f, 0.0f, 0.0f};
  scene.accel.refit(scene.points, 0.05f);
  EXPECT_FALSE(scene.accel.has_bvh());
  EXPECT_EQ(scene.accel.bvh().prim_aabbs()[3], Aabb::cube(scene.points[3], 0.05f));
}

TEST(Optix, LeafSizeOptionHonored) {
  const Context ctx;
  Pcg32 rng(5);
  std::vector<Aabb> aabbs;
  for (int i = 0; i < 64; ++i) {
    aabbs.push_back(Aabb::cube(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}), 0.01f));
  }
  AccelBuildOptions options;
  options.leaf_size = 4;
  const Accel accel = ctx.build_accel(aabbs, options);
  for (const auto& node : accel.bvh().nodes()) {
    if (node.is_leaf()) EXPECT_LE(node.count, 4u);
  }
}

}  // namespace
}  // namespace rtnn::ox
