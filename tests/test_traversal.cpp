#include "rtcore/traversal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/rng.hpp"
#include "rtcore/bvh.hpp"

namespace rtnn::rt {
namespace {

struct Scene {
  std::vector<Vec3> points;
  std::vector<Aabb> aabbs;
  Bvh bvh;
};

Scene make_scene(std::size_t n, float width, std::uint64_t seed) {
  Scene scene;
  Pcg32 rng(seed);
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  for (std::size_t i = 0; i < n; ++i) {
    scene.points.push_back(rng.uniform_in_aabb(box));
    scene.aabbs.push_back(Aabb::cube(scene.points.back(), width));
  }
  scene.bvh.build(scene.aabbs);
  return scene;
}

/// Records every primitive the IS stage sees, per ray.
struct Collector {
  std::vector<std::set<std::uint32_t>> hits;
  explicit Collector(std::size_t rays) : hits(rays) {}
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    hits[ray].insert(prim);
    return TraceAction::kContinue;
  }
};

/// Terminates each ray after `limit` intersections (the AH shader role).
struct Terminator {
  std::vector<std::uint32_t> counts;
  std::uint32_t limit;
  Terminator(std::size_t rays, std::uint32_t limit_) : counts(rays, 0), limit(limit_) {}
  TraceAction intersect(std::uint32_t ray, std::uint32_t) {
    return ++counts[ray] >= limit ? TraceAction::kTerminate : TraceAction::kContinue;
  }
};

std::vector<Ray> short_rays(const std::vector<Vec3>& queries) {
  std::vector<Ray> rays;
  rays.reserve(queries.size());
  for (const Vec3& q : queries) rays.push_back(Ray::short_ray(q));
  return rays;
}

std::set<std::uint32_t> brute_force_enclosing(const Scene& scene, const Vec3& q) {
  std::set<std::uint32_t> expected;
  for (std::uint32_t p = 0; p < scene.aabbs.size(); ++p) {
    if (scene.aabbs[p].contains(q)) expected.insert(p);
  }
  return expected;
}

TEST(Traversal, FindsExactlyTheEnclosingAabbs) {
  const Scene scene = make_scene(2000, 0.08f, 5);
  Pcg32 rng(55);
  std::vector<Vec3> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));
  }
  Collector collector(queries.size());
  const auto rays = short_rays(queries);
  const auto stats = trace(scene.bvh, rays, collector);
  EXPECT_EQ(stats.rays, queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(collector.hits[q], brute_force_enclosing(scene, queries[q]))
        << "query " << q;
  }
}

TEST(Traversal, SimtModeFindsTheSameHits) {
  const Scene scene = make_scene(1500, 0.1f, 6);
  Pcg32 rng(66);
  std::vector<Vec3> queries;
  for (int i = 0; i < 333; ++i) {  // deliberately not a multiple of 32
    queries.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));
  }
  const auto rays = short_rays(queries);

  Collector independent(queries.size());
  trace(scene.bvh, rays, independent);

  Collector simt(queries.size());
  TraceConfig config;
  config.model = ExecutionModel::kWarpLockstep;
  const auto stats = trace(scene.bvh, rays, simt, config);

  EXPECT_EQ(independent.hits, simt.hits);
  EXPECT_EQ(stats.warps, (queries.size() + 31) / 32);
  EXPECT_GT(stats.warp_substeps, 0u);
  EXPECT_GT(stats.occupancy(), 0.0);
  EXPECT_LE(stats.occupancy(), 1.0);
}

TEST(Traversal, TerminationStopsEarly) {
  const Scene scene = make_scene(3000, 0.2f, 7);
  Pcg32 rng(77);
  std::vector<Vec3> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(rng.uniform_in_aabb({{0.3f, 0.3f, 0.3f}, {0.7f, 0.7f, 0.7f}}));
  }
  const auto rays = short_rays(queries);

  Terminator term(queries.size(), 1);
  const auto stats = trace(scene.bvh, rays, term);
  for (const auto c : term.counts) {
    EXPECT_LE(c, 1u);
  }
  // Dense interior queries should all terminate at their first hit.
  EXPECT_GT(stats.terminated_rays, 90u);
  // Early termination must do less work than full traversal.
  Collector full(queries.size());
  const auto full_stats = trace(scene.bvh, rays, full);
  EXPECT_LT(stats.is_calls, full_stats.is_calls);
  EXPECT_LT(stats.node_visits, full_stats.node_visits);
}

TEST(Traversal, IsCallsGrowWithAabbWidth) {
  // The Figure 8 characterization at test scale: wider AABBs → more IS
  // calls, super-linearly.
  Pcg32 rng(88);
  std::vector<Vec3> queries;
  for (int i = 0; i < 500; ++i) {
    queries.push_back(rng.uniform_in_aabb({{0, 0, 0}, {1, 1, 1}}));
  }
  const auto rays = short_rays(queries);
  std::vector<std::uint64_t> is_calls;
  for (const float width : {0.02f, 0.08f, 0.32f}) {
    const Scene scene = make_scene(5000, width, 99);
    Collector collector(queries.size());
    const auto stats = trace(scene.bvh, rays, collector);
    is_calls.push_back(stats.is_calls);
  }
  EXPECT_LT(is_calls[0], is_calls[1]);
  EXPECT_LT(is_calls[1], is_calls[2]);
  // Cubic growth: 4x width → ~64x IS calls; assert clearly super-linear.
  EXPECT_GT(static_cast<double>(is_calls[2]),
            8.0 * static_cast<double>(is_calls[1]));
}

TEST(Traversal, CoherentRaysNeedFewerSubsteps) {
  // The mechanism behind Figures 5/6: Morton-sorted rays diverge less in
  // lockstep execution than shuffled rays.
  const Scene scene = make_scene(20000, 0.03f, 8);
  std::vector<Vec3> queries = scene.points;  // self-queries, spatially sorted below
  std::sort(queries.begin(), queries.end(), [](const Vec3& a, const Vec3& b) {
    return a.x != b.x ? a.x < b.x : (a.y != b.y ? a.y < b.y : a.z < b.z);
  });
  auto shuffled = queries;
  Pcg32 rng(222);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_bounded(static_cast<std::uint32_t>(i))]);
  }

  TraceConfig config;
  config.model = ExecutionModel::kWarpLockstep;
  config.simulate_caches = true;
  config.parallel = false;

  Collector c1(queries.size());
  const auto coherent = trace(scene.bvh, short_rays(queries), c1, config);
  Collector c2(shuffled.size());
  const auto incoherent = trace(scene.bvh, short_rays(shuffled), c2, config);

  EXPECT_LT(coherent.warp_substeps, incoherent.warp_substeps);
  EXPECT_GT(coherent.occupancy(), incoherent.occupancy());
  EXPECT_GT(coherent.l1.hit_rate(), incoherent.l1.hit_rate());
}

TEST(Traversal, CacheSimRequiresSimtMode) {
  const Scene scene = make_scene(10, 0.1f, 9);
  Collector collector(1);
  const std::vector<Ray> rays{Ray::short_ray({0.5f, 0.5f, 0.5f})};
  TraceConfig config;
  config.simulate_caches = true;  // but model = kIndependent
  EXPECT_THROW(trace(scene.bvh, rays, collector, config), Error);
}

TEST(Traversal, EmptyLaunches) {
  const Scene scene = make_scene(10, 0.1f, 10);
  Collector collector(0);
  const auto stats = trace(scene.bvh, std::span<const Ray>{}, collector);
  EXPECT_EQ(stats.rays, 0u);

  Bvh empty_bvh;
  empty_bvh.build({});
  Collector c2(1);
  const std::vector<Ray> rays{Ray::short_ray({0, 0, 0})};
  const auto s2 = trace(empty_bvh, rays, c2);
  EXPECT_EQ(s2.is_calls, 0u);
}

}  // namespace
}  // namespace rtnn::rt
