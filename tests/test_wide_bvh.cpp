// WideBvh collapse invariants and binary-vs-wide traversal parity: the
// wall-clock 8-wide path must find exactly the primitives the binary
// simulation path finds, whichever of the AVX2 / scalar node tests this
// build selected.
#include "rtcore/wide_bvh.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/rng.hpp"
#include "rtcore/traversal.hpp"
#include "test_util.hpp"

namespace rtnn::rt {
namespace {

using rtnn::testing::CloudKind;

struct Scene {
  std::vector<Vec3> points;
  std::vector<Aabb> aabbs;
  Bvh bvh;
  WideBvh wide;
};

Scene make_scene(CloudKind kind, std::size_t n, float width, std::uint64_t seed,
                 std::uint32_t leaf_size = 1) {
  Scene scene;
  scene.points = rtnn::testing::make_cloud(kind, n, seed);
  scene.aabbs.reserve(scene.points.size());
  for (const Vec3& p : scene.points) scene.aabbs.push_back(Aabb::cube(p, width));
  scene.bvh.build(scene.aabbs, BvhBuildOptions{leaf_size});
  scene.wide.build(scene.bvh);
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

/// KNN program over a heap pool — K-nearest results are traversal-order
/// independent, so binary and wide launches must agree id-for-id after
/// sorting, for any K.
struct KnnProgram {
  std::span<const Vec3> points;
  std::span<const Vec3> queries;
  float radius2;
  FlatKnnHeaps* heaps;
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    const float d2 = distance2(points[prim], queries[ray]);
    if (d2 <= radius2 && d2 < heaps->worst_dist2(ray)) heaps->push(ray, d2, prim);
    return TraceAction::kContinue;
  }
};

std::vector<Ray> short_rays(std::span<const Vec3> queries) {
  std::vector<Ray> rays;
  rays.reserve(queries.size());
  for (const Vec3& q : queries) rays.push_back(Ray::short_ray(q));
  return rays;
}

TEST(WideBvh, CollapseInvariants) {
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 63u, 1000u, 5000u}) {
    const Scene scene = make_scene(CloudKind::kUniform, n, 0.05f, n);
    ASSERT_NO_THROW(scene.wide.validate()) << "n=" << n;
    const WideBvhStats stats = scene.wide.stats();
    const BvhStats bin_stats = scene.bvh.stats();
    EXPECT_LE(stats.node_count, bin_stats.node_count) << "n=" << n;
    EXPECT_EQ(scene.wide.prim_count(), scene.bvh.prim_count());
    if (n >= 64) {
      // A healthy collapse beats the binary branching factor comfortably;
      // bottom-of-tree subtrees with < 8 leaves keep the average below 8.
      EXPECT_GT(stats.avg_children, 3.0) << "n=" << n;
      EXPECT_LE(stats.max_depth, bin_stats.max_depth) << "n=" << n;
    }
  }
}

TEST(WideBvh, CollapseInvariantsWiderLeaves) {
  for (const std::uint32_t leaf_size : {2u, 4u, 8u}) {
    const Scene scene = make_scene(CloudKind::kUniform, 3000, 0.05f, leaf_size, leaf_size);
    ASSERT_NO_THROW(scene.wide.validate()) << "leaf_size=" << leaf_size;
  }
}

TEST(WideBvh, EmptyAndDegenerateInputs) {
  Bvh empty;
  empty.build({});
  WideBvh wide;
  wide.build(empty);
  EXPECT_TRUE(wide.empty());
  ASSERT_NO_THROW(wide.validate());
  Collector collector(1);
  const std::vector<Ray> rays{Ray::short_ray({0, 0, 0})};
  const auto stats = trace(wide, rays, collector);
  EXPECT_EQ(stats.is_calls, 0u);

  // All points coincident: duplicated Morton codes force median splits.
  std::vector<Aabb> coincident(1000, Aabb::cube({0.5f, 0.5f, 0.5f}, 0.1f));
  Bvh bvh;
  bvh.build(coincident);
  WideBvh wide2;
  wide2.build(bvh);
  ASSERT_NO_THROW(wide2.validate());
  Collector c2(1);
  const std::vector<Ray> r2{Ray::short_ray({0.5f, 0.5f, 0.5f})};
  trace(wide2, r2, c2);
  EXPECT_EQ(c2.hits[0].size(), coincident.size());

  // Single primitive: the binary root itself is a leaf.
  Bvh single;
  single.build(std::vector<Aabb>{Aabb::cube({0.1f, 0.2f, 0.3f}, 0.2f)});
  WideBvh wide3;
  wide3.build(single);
  ASSERT_NO_THROW(wide3.validate());
  Collector c3(1);
  const std::vector<Ray> r3{Ray::short_ray({0.1f, 0.2f, 0.3f})};
  trace(wide3, r3, c3);
  EXPECT_EQ(c3.hits[0], std::set<std::uint32_t>{0u});
}

/// The heart of the PR: the wide path and the binary path must invoke the
/// IS shader on exactly the same primitive sets — on uniform and on
/// lidar-shaped (highly anisotropic density) clouds, with the SIMD node
/// test agreeing with the scalar one on every box.
TEST(WideBvh, TraversalParityWithBinary) {
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const float width = 2.0f * rtnn::testing::typical_radius(kind);
    const Scene scene = make_scene(kind, 4000, width, 17);
    Pcg32 rng(99);
    std::vector<Vec3> queries = scene.points;
    for (int i = 0; i < 500; ++i) {
      queries.push_back(rng.uniform_in_aabb(scene.bvh.scene_bounds().expanded(width)));
    }
    const auto rays = short_rays(queries);

    Collector binary(queries.size());
    trace(scene.bvh, rays, binary);
    Collector wide(queries.size());
    trace(scene.wide, rays, wide);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(wide.hits[q], binary.hits[q])
          << rtnn::testing::to_string(kind) << " query " << q;
    }
  }
}

TEST(WideBvh, TraversalParityWiderLeaves) {
  const Scene scene = make_scene(CloudKind::kUniform, 3000, 0.08f, 21, 4);
  const auto rays = short_rays(scene.points);
  Collector binary(scene.points.size());
  trace(scene.bvh, rays, binary);
  Collector wide(scene.points.size());
  trace(scene.wide, rays, wide);
  EXPECT_EQ(wide.hits, binary.hits);
}

TEST(WideBvh, KnnParityAcrossK) {
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const float radius = 2.0f * rtnn::testing::typical_radius(kind);
    const Scene scene = make_scene(kind, 3000, 2.0f * radius, 31);
    const auto rays = short_rays(scene.points);
    for (const std::uint32_t k : {1u, 8u, 64u}) {
      FlatKnnHeaps heaps_bin(scene.points.size(), k);
      KnnProgram bin{scene.points, scene.points, radius * radius, &heaps_bin};
      trace(scene.bvh, rays, bin);
      FlatKnnHeaps heaps_wide(scene.points.size(), k);
      KnnProgram wid{scene.points, scene.points, radius * radius, &heaps_wide};
      trace(scene.wide, rays, wid);
      rtnn::testing::expect_same_neighbor_sets(
          heaps_wide.extract(), heaps_bin.extract(),
          rtnn::testing::to_string(kind) + " K=" + std::to_string(k));
    }
  }
}

/// Direct check that this build's node_hits over the FP32 layout (AVX2 or
/// scalar) agrees with the scalar single-box test on every slot —
/// including arbitrary ray directions, zero direction components (±inf
/// reciprocals) and boundary coordinates that produce NaNs in the slab
/// arithmetic.
TEST(WideBvh, NodeTestMatchesScalarSemantics) {
  Pcg32 rng(4242);
  const Aabb domain{{-1, -1, -1}, {1, 1, 1}};
  for (int iter = 0; iter < 2000; ++iter) {
    alignas(64) WideBvhNode node{};
    node.count = kWideBvhWidth;
    Aabb boxes[kWideBvhWidth];
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      Vec3 a = rng.uniform_in_aabb(domain);
      Vec3 b = rng.uniform_in_aabb(domain);
      boxes[i] = Aabb{min(a, b), max(a, b)};
      node.minx[i] = boxes[i].lo.x;
      node.miny[i] = boxes[i].lo.y;
      node.minz[i] = boxes[i].lo.z;
      node.maxx[i] = boxes[i].hi.x;
      node.maxy[i] = boxes[i].hi.y;
      node.maxz[i] = boxes[i].hi.z;
      node.child[i] = WideBvhNode::kLeafBit | i;
    }
    Ray ray;
    switch (iter % 4) {
      case 0:  // RTNN's degenerate short ray
        ray = Ray::short_ray(rng.uniform_in_aabb(domain));
        break;
      case 1:  // general segment
        ray.origin = rng.uniform_in_aabb(domain);
        ray.dir = rng.uniform_in_aabb(domain);
        ray.tmin = 0.0f;
        ray.tmax = 2.0f;
        break;
      case 2:  // axis-aligned: two zero components → ±inf reciprocals
        ray.origin = rng.uniform_in_aabb(domain);
        ray.dir = Vec3{0.0f, iter % 8 < 4 ? 1.0f : -1.0f, 0.0f};
        ray.tmax = 1.5f;
        break;
      default:  // origin pinned to a box face: NaN (0 * inf) in the slab
        ray.origin = Vec3{boxes[3].lo.x, boxes[3].lo.y, boxes[3].hi.z};
        ray.dir = Vec3{1.0f, 0.0f, 0.0f};
        ray.tmax = 1.0f;
        break;
    }
    const std::uint32_t mask =
        detail::node_hits(node, ray, reciprocal_dir(ray));
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      EXPECT_EQ((mask >> i) & 1u, ray_intersects_aabb(ray, boxes[i]) ? 1u : 0u)
          << "iter " << iter << " slot " << i;
    }
  }
}

TEST(WideBvh, WideTraceRejectsSimulationModes) {
  const Scene scene = make_scene(CloudKind::kUniform, 100, 0.1f, 3);
  Collector collector(1);
  const std::vector<Ray> rays{Ray::short_ray({0.5f, 0.5f, 0.5f})};
  TraceConfig config;
  config.model = ExecutionModel::kWarpLockstep;
  EXPECT_THROW(trace(scene.wide, rays, collector, config), Error);
}

}  // namespace
}  // namespace rtnn::rt
