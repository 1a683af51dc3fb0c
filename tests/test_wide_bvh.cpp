// WideBvh collapse invariants, the build's bytes (node for node against
// the serial oracle collapse, and identical at any thread count), and
// binary-vs-wide traversal parity: the wall-clock compressed 8-wide path
// must make exactly the IS calls the binary simulation path makes — same
// primitives, each exactly once — whichever of the AVX2 / scalar node
// tests this build selected.
#include "rtcore/wide_bvh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "degenerate_trials.hpp"
#include "rtcore/traversal.hpp"
#include "test_util.hpp"
#include "wide_bvh_oracle.hpp"

namespace rtnn::rt {
namespace {

using rtnn::testing::CloudKind;

struct Scene {
  std::vector<Vec3> points;
  float width = 0.0f;
  std::vector<Aabb> aabbs;
  Bvh bvh;
  WideBvh wide;
};

Scene build_scene(std::vector<Vec3> points, float width) {
  Scene scene;
  scene.points = std::move(points);
  scene.width = width;
  scene.aabbs.reserve(scene.points.size());
  for (const Vec3& p : scene.points) scene.aabbs.push_back(Aabb::cube(p, width));
  scene.bvh.build(scene.aabbs);
  scene.wide.build(scene.bvh);
  return scene;
}

Scene make_scene(CloudKind kind, std::size_t n, float width, std::uint64_t seed) {
  return build_scene(rtnn::testing::make_cloud(kind, n, seed), width);
}

/// Records every primitive the IS stage sees, per ray, with multiplicity:
/// sorted() lists compare equal only if no primitive was called twice
/// where the other walk called it once.
struct Collector {
  std::vector<std::vector<std::uint32_t>> hits;
  explicit Collector(std::size_t rays) : hits(rays) {}
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    hits[ray].push_back(prim);
    return TraceAction::kContinue;
  }
  std::vector<std::vector<std::uint32_t>> sorted() const {
    auto rows = hits;
    for (auto& row : rows) std::sort(row.begin(), row.end());
    return rows;
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

/// The build's bytes: the subtree-parallel collapse, quantizing as it
/// emits, must give the serial breadth-first collapse plus sweep node for
/// node in DFS order — on 200k-point trees, on one- and two-point trees
/// and on 20,000 copies of one point (median splits all the way down);
/// all but the tiny trees take the subtree path.
TEST(WideBvh, BuildMatchesTheSerialCollapse) {
  struct Case {
    std::string label;
    std::vector<Vec3> points;
    float width;
  };
  const float lidar_width = 2.0f * rtnn::testing::typical_radius(CloudKind::kLidar);
  std::vector<Case> cases;
  cases.push_back({"lidar-200k", rtnn::testing::make_cloud(CloudKind::kLidar, 200'000, 71),
                   lidar_width});
  cases.push_back({"uniform-200k", rtnn::testing::make_cloud(CloudKind::kUniform, 200'000, 72),
                   0.01f});
  cases.push_back({"one-point", {{0.25f, -0.5f, 3.0f}}, 0.1f});
  cases.push_back({"two-points", {{0.0f, 0.0f, 0.0f}, {1.0f, 2.0f, 3.0f}}, 0.1f});
  cases.push_back({"one-point-x20000",
                   std::vector<Vec3>(20'000, Vec3{0.5f, 0.25f, -0.75f}), 0.1f});
  for (const Case& c : cases) {
    Bvh bvh;
    bvh.build(c.points, c.width);
    const rtnn::testing::oracle::Tree want = rtnn::testing::oracle::collapse(bvh);
    WideBvh wide;
    wide.build(bvh);
    ASSERT_NO_THROW(wide.validate()) << c.label;
    rtnn::testing::oracle::expect_same_tree(wide, want, c.label);
    EXPECT_TRUE(std::equal(wide.prim_order().begin(), wide.prim_order().end(),
                           bvh.prim_order().begin(), bvh.prim_order().end()))
        << c.label;
    EXPECT_EQ(wide.scene_bounds(), bvh.nodes()[bvh.root()].bounds) << c.label;
    if (c.points.size() >= 20'000) {
      EXPECT_GT(wide.subtree_offsets().size(), 1u) << c.label << " must take the subtree path";
    }
  }
}

/// Every array of the wide tree, and its SAH after a refit, are the same
/// bytes at 1, 2 and 4 threads: the subtree cut depends on the tree alone.
TEST(WideBvh, ArraysAreIdenticalAtAnyThreadCount) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kLidar, 100'000, 74);
  const float width = 2.0f * rtnn::testing::typical_radius(CloudKind::kLidar);
  std::vector<Vec3> moved = points;
  Pcg32 rng(75);
  for (Vec3& p : moved) p.x += 0.1f * width * (rng.next_float() - 0.5f);
  const auto bytes_of = [](auto span) {
    std::vector<unsigned char> out(span.size_bytes());
    if (!out.empty()) std::memcpy(out.data(), span.data(), out.size());
    return out;
  };
  struct Snapshot {
    std::vector<std::vector<unsigned char>> arrays;
    double refit_sah;
  };
  const auto snapshot = [&](int threads) {
    set_num_threads(threads);
    Bvh bvh;
    bvh.build(points, width);
    WideBvh wide;
    wide.build(bvh);
    Snapshot s;
    s.arrays = {bytes_of(wide.compressed_nodes()), bytes_of(wide.leaves()),
                bytes_of(wide.prim_order()),       bytes_of(wide.ordered_prim_aabbs()),
                bytes_of(wide.expand_masks()),     bytes_of(wide.subtree_offsets())};
    wide.refit(moved, width);
    s.refit_sah = wide.sah_inflation();
    return s;
  };
  const Snapshot serial = snapshot(1);
  for (const int threads : {2, 4}) {
    const Snapshot parallel = snapshot(threads);
    for (std::size_t a = 0; a < serial.arrays.size(); ++a) {
      EXPECT_TRUE(parallel.arrays[a] == serial.arrays[a]) << "array " << a << " at " << threads
                                                          << " threads";
    }
    EXPECT_EQ(parallel.refit_sah, serial.refit_sah) << threads << " threads";
  }
  set_num_threads(0);
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
  EXPECT_EQ(c3.hits[0], std::vector<std::uint32_t>{0u});
}

/// The exactness bar of the wide layout: the wide path and the binary
/// path must invoke the IS shader on exactly the same primitives, each
/// exactly once — on uniform and lidar-shaped (highly anisotropic density)
/// clouds and every degenerate generator shape, with the SIMD node test
/// agreeing with the scalar one on every box.
TEST(WideBvh, TraversalParityWithBinary) {
  std::vector<std::pair<std::string, Scene>> scenes;
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const float width = 2.0f * rtnn::testing::typical_radius(kind);
    scenes.emplace_back(rtnn::testing::to_string(kind), make_scene(kind, 4000, width, 17));
  }
  for (rtnn::testing::Trial& trial : rtnn::testing::degenerate_shapes(0xbeefu)) {
    scenes.emplace_back(trial.generator,
                        build_scene(std::move(trial.points), 2.0f * trial.radius));
  }

  for (const auto& [label, scene] : scenes) {
    Pcg32 rng(99);
    std::vector<Vec3> queries = scene.points;
    for (int i = 0; i < 500; ++i) {
      queries.push_back(rng.uniform_in_aabb(scene.bvh.scene_bounds().expanded(scene.width)));
    }
    const auto rays = short_rays(queries);

    Collector binary(queries.size());
    trace(scene.bvh, rays, binary);
    Collector wide(queries.size());
    trace(scene.wide, rays, wide);
    const auto expected = binary.sorted();
    const auto got = wide.sorted();
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(got[q], expected[q]) << label << " query " << q;
    }
  }
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

TEST(WideBvh, WideTraceRejectsSimulationModes) {
  const Scene scene = make_scene(CloudKind::kUniform, 100, 0.1f, 3);
  Collector collector(1);
  const std::vector<Ray> rays{Ray::short_ray({0.5f, 0.5f, 0.5f})};
  TraceConfig config;
  config.model = ExecutionModel::kWarpLockstep;
  EXPECT_THROW(trace(scene.wide, rays, collector, config), Error);
}

/// The wide overload's cache simulation replays every node and leaf-box
/// fetch of the walk without changing what the walk does.
TEST(WideBvh, CacheSimulationLeavesTheWalkUnchanged) {
  const Scene scene = make_scene(CloudKind::kUniform, 3000, 0.05f, 5);
  const auto rays = short_rays(scene.points);
  TraceConfig config;
  Collector plain(rays.size());
  const LaunchStats plain_stats = trace(scene.wide, rays, plain, config);
  config.simulate_caches = true;
  Collector simulated(rays.size());
  const LaunchStats sim_stats = trace(scene.wide, rays, simulated, config);
  EXPECT_EQ(simulated.hits, plain.hits);
  EXPECT_EQ(sim_stats.node_visits, plain_stats.node_visits);
  EXPECT_EQ(sim_stats.is_calls, plain_stats.is_calls);
  EXPECT_EQ(plain_stats.l1.accesses, 0u);
  // At least one line per node fetch and per leaf-box fetch.
  EXPECT_GE(sim_stats.l1.accesses, sim_stats.node_visits + sim_stats.is_calls);
}

}  // namespace
}  // namespace rtnn::rt
