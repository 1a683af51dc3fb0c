// Compressed wide-BVH node correctness: conservative quantization against
// the exact subtree bounds, SIMD-vs-scalar decode parity, and self-refit
// frames that stay valid, call-for-call exact against a binary walk over
// the moved boxes, and bit-identical to the build when nothing moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "degenerate_trials.hpp"
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

/// Records every primitive the IS stage sees, per ray; sorted() keeps
/// multiplicity, so a duplicated IS call shows up as a difference.
struct Collector {
  std::vector<std::vector<std::uint32_t>> calls;
  explicit Collector(std::size_t rays) : calls(rays) {}
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    calls[ray].push_back(prim);
    return TraceAction::kContinue;
  }
  std::vector<std::vector<std::uint32_t>> sorted() const {
    auto rows = calls;
    for (auto& row : rows) std::sort(row.begin(), row.end());
    return rows;
  }
};

std::vector<Ray> short_rays(std::span<const Vec3> queries) {
  std::vector<Ray> rays;
  rays.reserve(queries.size());
  for (const Vec3& q : queries) rays.push_back(Ray::short_ray(q));
  return rays;
}

/// Every dequantized child box must contain the exact bounds of the
/// subtree behind its slot — the conservativeness property traversal
/// exactness is derived from. The exact bounds are rebuilt bottom-up here
/// from the source tree's id-ordered primitive boxes (the BFS build
/// allocates every child after its parent). Checked directly (not only
/// via validate()) over regular and degenerate geometry, and with
/// multi-primitive leaves.
TEST(CompressedWideBvh, ConservativeQuantizationProperty) {
  std::vector<Scene> scenes;
  scenes.push_back(make_scene(CloudKind::kUniform, 5000, 0.05f, 7));
  scenes.push_back(make_scene(CloudKind::kLidar, 4000,
                              2.0f * rtnn::testing::typical_radius(CloudKind::kLidar), 9));
  scenes.push_back(make_scene(CloudKind::kUniform, 3000, 0.05f, 11, /*leaf_size=*/4));
  for (rtnn::testing::Trial& trial : rtnn::testing::degenerate_shapes(0xc0deu)) {
    scenes.push_back(build_scene(std::move(trial.points), 2.0f * trial.radius));
  }

  for (const Scene& scene : scenes) {
    ASSERT_NO_THROW(scene.wide.validate());
    const auto nodes = scene.wide.compressed_nodes();
    const auto leaves = scene.wide.leaves();
    const auto order = scene.wide.prim_order();
    std::vector<Aabb> subtree(nodes.size());
    for (std::size_t ni = nodes.size(); ni-- > 0;) {
      const CompressedWideNode& node = nodes[ni];
      for (std::uint32_t i = 0; i < node.count; ++i) {
        Aabb exact;
        if (node.is_leaf_slot(i)) {
          const WideLeaf& leaf = leaves[node.leaf_index(i)];
          for (std::uint32_t s = leaf.first; s < leaf.first + leaf.count; ++s) {
            exact.grow(scene.bvh.prim_aabbs()[order[s]]);
          }
        } else {
          ASSERT_GT(node.child_index(i), ni) << "children must follow their parent";
          exact = subtree[node.child_index(i)];
        }
        const Aabb decoded = dequantize_slot(node, i);
        ASSERT_LE(decoded.lo.x, exact.lo.x) << "node " << ni << " slot " << i;
        ASSERT_LE(decoded.lo.y, exact.lo.y) << "node " << ni << " slot " << i;
        ASSERT_LE(decoded.lo.z, exact.lo.z) << "node " << ni << " slot " << i;
        ASSERT_GE(decoded.hi.x, exact.hi.x) << "node " << ni << " slot " << i;
        ASSERT_GE(decoded.hi.y, exact.hi.y) << "node " << ni << " slot " << i;
        ASSERT_GE(decoded.hi.z, exact.hi.z) << "node " << ni << " slot " << i;
        subtree[ni].grow(exact);
      }
    }
  }
}

/// This build's node_hits (AVX2 or scalar) must agree with the scalar
/// dequantize-then-ray_intersects_aabb reference on every slot of every
/// node, for every ray class the traversal meets: short rays, general
/// segments, axis-aligned rays with ±inf reciprocals, and face-pinned
/// origins that produce NaNs in the slab arithmetic.
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

/// Refit frames: after each frame of motion the re-quantized nodes must be
/// freshly conservative (validate) and the wide walk still call-for-call
/// exact against a binary tree built over the moved boxes.
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
    scene.wide.refit(moved);
    ASSERT_NO_THROW(scene.wide.validate()) << "frame " << frame;

    Bvh fresh;
    fresh.build(moved);
    const auto rays = short_rays(points);
    Collector binary(points.size());
    trace(fresh, rays, binary);
    Collector wide(points.size());
    trace(scene.wide, rays, wide);
    ASSERT_EQ(wide.sorted(), binary.sorted()) << "frame " << frame;
  }
}

/// Min/max unions are exact, so refitting over unmoved boxes must
/// reproduce the build's nodes and leaf-ordered boxes bit for bit, and
/// leave the SAH inflation at 1.
TEST(CompressedWideBvh, IdentityRefitIsBitIdentical) {
  Scene scene = make_scene(CloudKind::kLidar, 4000,
                           2.0f * rtnn::testing::typical_radius(CloudKind::kLidar), 19);
  const std::vector<CompressedWideNode> nodes(scene.wide.compressed_nodes().begin(),
                                              scene.wide.compressed_nodes().end());
  const std::vector<Aabb> prims(scene.wide.ordered_prim_aabbs().begin(),
                                scene.wide.ordered_prim_aabbs().end());
  scene.wide.refit(scene.aabbs);
  EXPECT_NEAR(scene.wide.sah_inflation(), 1.0, 1e-12);
  ASSERT_EQ(scene.wide.compressed_nodes().size(), nodes.size());
  ASSERT_EQ(scene.wide.ordered_prim_aabbs().size(), prims.size());
  EXPECT_EQ(std::memcmp(scene.wide.compressed_nodes().data(), nodes.data(),
                        nodes.size() * sizeof(CompressedWideNode)),
            0);
  EXPECT_EQ(std::memcmp(scene.wide.ordered_prim_aabbs().data(), prims.data(),
                        prims.size() * sizeof(Aabb)),
            0);
}

}  // namespace
}  // namespace rtnn::rt
