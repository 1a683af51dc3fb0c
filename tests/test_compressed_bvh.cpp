// Compressed (quantized) wide-BVH correctness: conservative quantization,
// SIMD-vs-scalar decode parity, and — the acceptance bar of the layout —
// candidate-set *and IS-call-sequence* exactness against the FP32 wide
// path, across uniform/lidar clouds, the degenerate differential
// generators, K = 1/8/64 KNN, range-mode termination, and
// refit-then-requantize frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/rng.hpp"
#include "rtcore/traversal.hpp"
#include "rtcore/wide_bvh.hpp"
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

Scene build_scene(std::vector<Vec3> points, float width, std::uint32_t leaf_size = 1) {
  Scene scene;
  scene.points = std::move(points);
  scene.aabbs.reserve(scene.points.size());
  for (const Vec3& p : scene.points) scene.aabbs.push_back(Aabb::cube(p, width));
  scene.bvh.build(scene.aabbs, BvhBuildOptions{leaf_size});
  scene.wide.build(scene.bvh);
  return scene;
}

Scene make_scene(CloudKind kind, std::size_t n, float width, std::uint64_t seed,
                 std::uint32_t leaf_size = 1) {
  return build_scene(rtnn::testing::make_cloud(kind, n, seed), width, leaf_size);
}

// Degenerate point sets mirroring the generator shapes of
// test_differential.cpp (that file's generators live in its anonymous
// namespace): coincident sites, exactly collinear, exactly planar, large
// coordinate magnitudes, and isolated dense clusters.
struct DegenerateSet {
  std::string name;
  std::vector<Vec3> points;
  float radius;
};

std::vector<DegenerateSet> degenerate_sets(std::uint64_t seed) {
  constexpr std::size_t kN = 384;
  std::vector<DegenerateSet> sets;
  {
    Pcg32 rng(seed);
    DegenerateSet s{.name = "coincident", .points = {}, .radius = 0.05f};
    std::vector<Vec3> sites;
    for (int i = 0; i < 12; ++i) {
      sites.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
    }
    for (std::size_t i = 0; i < kN; ++i) {
      s.points.push_back(sites[rng.next_bounded(static_cast<std::uint32_t>(sites.size()))]);
    }
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 1);
    DegenerateSet s{.name = "collinear", .points = {}, .radius = 0.04f};
    const Vec3 origin{rng.next_float(), rng.next_float(), rng.next_float()};
    const Vec3 dir{1.0f, 0.5f, -0.25f};
    for (std::size_t i = 0; i < kN; ++i) {
      const float t = rng.next_float();
      s.points.push_back({origin.x + t * dir.x, origin.y + t * dir.y, origin.z + t * dir.z});
    }
    s.points[5] = s.points[4];
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 2);
    DegenerateSet s{.name = "planar", .points = {}, .radius = 0.12f};
    const float z = rng.next_float();
    for (std::size_t i = 0; i < kN; ++i) {
      s.points.push_back({rng.next_float(), rng.next_float(), z});
    }
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 3);
    DegenerateSet s{.name = "extreme", .points = {}, .radius = 1.0e6f * 1.5e-4f};
    const float scale = 1.0e6f;
    for (std::size_t i = 0; i < kN; ++i) {
      s.points.push_back({scale + scale * 0.001f * rng.next_float(),
                          -scale + scale * 0.001f * rng.next_float(),
                          scale * 0.001f * rng.next_float()});
    }
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 4);
    DegenerateSet s{.name = "clustered", .points = {}, .radius = 0.08f};
    std::vector<Vec3> centers;
    for (int c = 0; c < 6; ++c) {
      centers.push_back(
          {10.0f * rng.next_float(), 10.0f * rng.next_float(), 10.0f * rng.next_float()});
    }
    for (std::size_t i = 0; i < kN; ++i) {
      const Vec3& c = centers[rng.next_bounded(static_cast<std::uint32_t>(centers.size()))];
      s.points.push_back({c.x + 0.1f * (rng.next_float() - 0.5f),
                          c.y + 0.1f * (rng.next_float() - 0.5f),
                          c.z + 0.1f * (rng.next_float() - 0.5f)});
    }
    sets.push_back(std::move(s));
  }
  return sets;
}

/// Records the *sequence* of IS calls per ray — stricter than a set: the
/// compressed path promises the identical call order, which is what makes
/// kTerminate cut-offs land on the same primitive.
struct SequenceCollector {
  std::vector<std::vector<std::uint32_t>> calls;
  explicit SequenceCollector(std::size_t rays) : calls(rays) {}
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    calls[ray].push_back(prim);
    return TraceAction::kContinue;
  }
};

/// Terminates each ray after `limit` IS calls — the range-mode K cap.
struct TerminatingCollector {
  std::vector<std::vector<std::uint32_t>> calls;
  std::uint32_t limit;
  TerminatingCollector(std::size_t rays, std::uint32_t limit_)
      : calls(rays), limit(limit_) {}
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    calls[ray].push_back(prim);
    return calls[ray].size() >= limit ? TraceAction::kTerminate
                                      : TraceAction::kContinue;
  }
};

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

std::vector<Vec3> parity_queries(const Scene& scene, float radius, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Vec3> queries = scene.points;
  const Aabb domain = scene.bvh.scene_bounds().expanded(radius);
  for (int i = 0; i < 200; ++i) queries.push_back(rng.uniform_in_aabb(domain));
  return queries;
}

TraceConfig compressed_config() {
  TraceConfig config;
  config.use_compressed = true;
  return config;
}

/// Every dequantized child box must contain its FP32 slot box — the
/// conservativeness property traversal exactness is derived from — and
/// reconstructed child references must match the FP32 child table.
/// Checked directly (not only via validate()) over regular and degenerate
/// geometry, and with multi-primitive leaves.
TEST(CompressedWideBvh, ConservativeQuantizationProperty) {
  std::vector<Scene> scenes;
  scenes.push_back(make_scene(CloudKind::kUniform, 5000, 0.05f, 7));
  scenes.push_back(make_scene(CloudKind::kLidar, 4000,
                              2.0f * rtnn::testing::typical_radius(CloudKind::kLidar), 9));
  scenes.push_back(make_scene(CloudKind::kUniform, 3000, 0.05f, 11, /*leaf_size=*/4));
  for (auto& set : degenerate_sets(0xc0deu)) {
    scenes.push_back(build_scene(std::move(set.points), 2.0f * set.radius));
  }

  for (const Scene& scene : scenes) {
    ASSERT_NO_THROW(scene.wide.validate());
    const auto nodes = scene.wide.nodes();
    const auto compressed = scene.wide.compressed_nodes();
    ASSERT_EQ(nodes.size(), compressed.size());
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
      const WideBvhNode& node = nodes[ni];
      const CompressedWideNode& cn = compressed[ni];
      ASSERT_EQ(cn.count, node.count);
      for (std::uint32_t i = 0; i < node.count; ++i) {
        const Aabb exact{{node.minx[i], node.miny[i], node.minz[i]},
                         {node.maxx[i], node.maxy[i], node.maxz[i]}};
        const Aabb decoded = dequantize_slot(cn, i);
        ASSERT_LE(decoded.lo.x, exact.lo.x) << "node " << ni << " slot " << i;
        ASSERT_LE(decoded.lo.y, exact.lo.y) << "node " << ni << " slot " << i;
        ASSERT_LE(decoded.lo.z, exact.lo.z) << "node " << ni << " slot " << i;
        ASSERT_GE(decoded.hi.x, exact.hi.x) << "node " << ni << " slot " << i;
        ASSERT_GE(decoded.hi.y, exact.hi.y) << "node " << ni << " slot " << i;
        ASSERT_GE(decoded.hi.z, exact.hi.z) << "node " << ni << " slot " << i;
        if (node.child[i] & WideBvhNode::kLeafBit) {
          ASSERT_TRUE(cn.is_leaf_slot(i));
          ASSERT_EQ(cn.leaf_index(i), node.child[i] & ~WideBvhNode::kLeafBit);
        } else {
          ASSERT_FALSE(cn.is_leaf_slot(i));
          ASSERT_EQ(cn.child_index(i), node.child[i]);
        }
      }
    }
  }
}

/// This build's node_hits over the compressed layout (AVX2 or scalar)
/// must agree with the scalar dequantize-then-ray_intersects_aabb
/// reference on every slot of every node, for the same ray classes the
/// FP32 node test is checked against (short rays, general segments,
/// axis-aligned with ±inf reciprocals, and NaN-producing face-pinned
/// origins).
TEST(CompressedWideBvh, NodeTestMatchesScalarDecode) {
  const Scene scene = make_scene(CloudKind::kUniform, 2000, 0.08f, 4242);
  const auto compressed = scene.wide.compressed_nodes();
  ASSERT_FALSE(compressed.empty());
  Pcg32 rng(99);
  const Aabb domain = scene.bvh.scene_bounds().expanded(0.1f);
  for (int iter = 0; iter < 500; ++iter) {
    const CompressedWideNode& node =
        compressed[rng.next_bounded(static_cast<std::uint32_t>(compressed.size()))];
    Ray ray;
    switch (iter % 4) {
      case 0:
        ray = Ray::short_ray(rng.uniform_in_aabb(domain));
        break;
      case 1:
        ray.origin = rng.uniform_in_aabb(domain);
        ray.dir = rng.uniform_in_aabb(Aabb{{-1, -1, -1}, {1, 1, 1}});
        ray.tmin = 0.0f;
        ray.tmax = 2.0f;
        break;
      case 2:
        ray.origin = rng.uniform_in_aabb(domain);
        ray.dir = Vec3{0.0f, iter % 8 < 4 ? 1.0f : -1.0f, 0.0f};
        ray.tmax = 1.5f;
        break;
      default: {
        // Origin pinned to a decoded box face: 0 * inf NaNs in the slab.
        const Aabb box = dequantize_slot(node, 0);
        ray.origin = Vec3{box.lo.x, box.lo.y, box.hi.z};
        ray.dir = Vec3{1.0f, 0.0f, 0.0f};
        ray.tmax = 1.0f;
        break;
      }
    }
    const Vec3 inv_dir = reciprocal_dir(ray);
    const std::uint32_t mask = detail::node_hits(node, ray, inv_dir);
    for (std::uint32_t i = 0; i < node.count; ++i) {
      EXPECT_EQ((mask >> i) & 1u,
                ray_intersects_aabb(ray, dequantize_slot(node, i), inv_dir) ? 1u : 0u)
          << "iter " << iter << " slot " << i;
    }
  }
}

/// The acceptance bar: the compressed path must invoke the IS shader in
/// exactly the same per-ray sequence as the FP32 wide path — uniform,
/// lidar, and every degenerate generator shape, single- and multi-prim
/// leaves.
TEST(CompressedWideBvh, IsSequenceParityWithFp32Wide) {
  std::vector<std::pair<std::string, Scene>> scenes;
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const float width = 2.0f * rtnn::testing::typical_radius(kind);
    scenes.emplace_back(rtnn::testing::to_string(kind), make_scene(kind, 4000, width, 17));
  }
  scenes.emplace_back("uniform-leaf4",
                      make_scene(CloudKind::kUniform, 3000, 0.08f, 21, /*leaf_size=*/4));
  for (auto& set : degenerate_sets(0xbeefu)) {
    scenes.emplace_back(set.name, build_scene(std::move(set.points), 2.0f * set.radius));
  }

  for (const auto& [label, scene] : scenes) {
    const auto queries = parity_queries(scene, 0.1f, 51);
    const auto rays = short_rays(queries);

    SequenceCollector fp32(queries.size());
    trace(scene.wide, rays, fp32);
    SequenceCollector compressed(queries.size());
    trace(scene.wide, rays, compressed, compressed_config());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(compressed.calls[q], fp32.calls[q]) << label << " query " << q;
    }
  }
}

/// Termination parity under the range-mode K cap: because the IS sequences
/// are identical, cutting every ray off after its first `limit` calls must
/// leave byte-identical per-ray call lists.
TEST(CompressedWideBvh, RangeTerminationParity) {
  for (const std::uint32_t limit : {1u, 8u}) {
    const Scene scene = make_scene(CloudKind::kUniform, 4000, 0.1f, 33);
    const auto queries = parity_queries(scene, 0.1f, 77);
    const auto rays = short_rays(queries);

    TerminatingCollector fp32(queries.size(), limit);
    trace(scene.wide, rays, fp32);
    TerminatingCollector compressed(queries.size(), limit);
    trace(scene.wide, rays, compressed, compressed_config());
    ASSERT_EQ(compressed.calls, fp32.calls) << "limit " << limit;
  }
}

TEST(CompressedWideBvh, KnnParityAcrossK) {
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const float radius = 2.0f * rtnn::testing::typical_radius(kind);
    const Scene scene = make_scene(kind, 3000, 2.0f * radius, 31);
    const auto rays = short_rays(scene.points);
    for (const std::uint32_t k : {1u, 8u, 64u}) {
      FlatKnnHeaps heaps_fp32(scene.points.size(), k);
      KnnProgram fp32{scene.points, scene.points, radius * radius, &heaps_fp32};
      trace(scene.wide, rays, fp32);
      FlatKnnHeaps heaps_comp(scene.points.size(), k);
      KnnProgram comp{scene.points, scene.points, radius * radius, &heaps_comp};
      trace(scene.wide, rays, comp, compressed_config());
      rtnn::testing::expect_same_neighbor_sets(
          heaps_comp.extract(), heaps_fp32.extract(),
          rtnn::testing::to_string(kind) + " K=" + std::to_string(k));
    }
  }
}

/// Refit-then-requantize frames: after each frame of motion the compressed
/// mirror must be freshly conservative (validate) and still IS-sequence
/// exact against the refitted FP32 lanes.
TEST(CompressedWideBvh, RefitRequantizeParity) {
  Pcg32 rng(61);
  std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 3000, 5);
  Scene scene = build_scene(points, 0.08f);
  for (int frame = 0; frame < 3; ++frame) {
    for (Vec3& p : points) {
      p.x += 0.01f * (rng.next_float() - 0.5f);
      p.y += 0.01f * (rng.next_float() - 0.5f);
      p.z += 0.01f * (rng.next_float() - 0.5f);
    }
    std::vector<Aabb> moved;
    moved.reserve(points.size());
    for (const Vec3& p : points) moved.push_back(Aabb::cube(p, 0.08f));
    scene.bvh.refit(moved);
    scene.wide.refit_from(scene.bvh);
    ASSERT_NO_THROW(scene.wide.validate()) << "frame " << frame;

    const auto rays = short_rays(points);
    SequenceCollector fp32(points.size());
    trace(scene.wide, rays, fp32);
    SequenceCollector compressed(points.size());
    trace(scene.wide, rays, compressed, compressed_config());
    ASSERT_EQ(compressed.calls, fp32.calls) << "frame " << frame;
  }
}

/// The footprint claim behind the PR: >= 2x smaller node bytes (the 80 B
/// vs 256 B layout gives 3.2x), visible through both stats() variants.
TEST(CompressedWideBvh, NodeBytesShrinkAtLeastTwofold) {
  const Scene scene = make_scene(CloudKind::kUniform, 50'000, 0.02f, 3);
  const WideBvhStats fp32 = scene.wide.stats();
  const WideBvhStats comp = scene.wide.compressed_stats();
  ASSERT_GT(fp32.node_bytes, 0u);
  EXPECT_EQ(fp32.node_bytes, scene.wide.nodes().size() * sizeof(WideBvhNode));
  EXPECT_EQ(comp.node_bytes,
            scene.wide.compressed_nodes().size() * sizeof(CompressedWideNode));
  EXPECT_GE(fp32.node_bytes, 2 * comp.node_bytes);
  EXPECT_LT(comp.total_index_bytes, fp32.total_index_bytes);
  // Both accountings share the leaf/order/prim arrays; the compressed one
  // additionally carries the leaf-slot-ordered AABB snapshot its exact
  // re-test streams through.
  EXPECT_EQ(comp.total_index_bytes - comp.node_bytes,
            fp32.total_index_bytes - fp32.node_bytes +
                scene.wide.ordered_prim_aabbs().size_bytes());
  EXPECT_EQ(scene.wide.ordered_prim_aabbs().size(), scene.wide.prim_aabbs().size());
}

/// Modeled cache behavior: replaying the same launch through the cache
/// simulator at each layout's true byte footprint, the compressed layout
/// must miss substantially less — the mechanism the wall-clock win rests
/// on. (The >= 20% bar here is the acceptance criterion's fallback gate.)
TEST(CompressedWideBvh, ModeledMissesShrink) {
  const Scene scene = make_scene(CloudKind::kUniform, 30'000, 0.04f, 13);
  const auto rays = short_rays(scene.points);
  TraceConfig config;
  config.parallel = false;  // one hierarchy -> deterministic counters
  config.simulate_caches = true;

  SequenceCollector fp32(rays.size());
  config.use_compressed = false;
  const LaunchStats fp32_stats = trace(scene.wide, rays, fp32, config);
  SequenceCollector comp(rays.size());
  config.use_compressed = true;
  const LaunchStats comp_stats = trace(scene.wide, rays, comp, config);

  ASSERT_EQ(comp.calls, fp32.calls);  // same work, different footprint
  const auto misses = [](const LaunchStats& s) {
    return (s.l1.accesses - s.l1.hits) + (s.l2.accesses - s.l2.hits);
  };
  ASSERT_GT(misses(fp32_stats), 0u);
  EXPECT_LE(5 * misses(comp_stats), 4 * misses(fp32_stats))
      << "compressed layout should cut modeled misses by >= 20%: fp32="
      << misses(fp32_stats) << " compressed=" << misses(comp_stats);
}

}  // namespace
}  // namespace rtnn::rt
