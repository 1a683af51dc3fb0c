// Compressed wide-BVH node correctness: the quantizer against a scalar
// oracle on adversarial slot sets, conservative quantization against the
// exact subtree bounds, SIMD-vs-scalar decode parity, and self-refit
// frames that stay valid, call-for-call exact against a binary walk over
// the moved boxes, and bit-identical to the build when nothing moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "degenerate_trials.hpp"
#include "rtcore/traversal.hpp"
#include "rtcore/wide_bvh.hpp"
#include "test_util.hpp"
#include "wide_bvh_oracle.hpp"

namespace rtnn::rt {
namespace {

using rtnn::testing::CloudKind;

struct Scene {
  std::vector<Vec3> points;
  std::vector<Aabb> aabbs;
  Bvh bvh;
  WideBvh wide;
};

Scene build_scene(std::vector<Vec3> points, float width) {
  Scene scene;
  scene.points = std::move(points);
  scene.aabbs.reserve(scene.points.size());
  for (const Vec3& p : scene.points) scene.aabbs.push_back(Aabb::cube(p, width));
  scene.bvh.build(scene.aabbs);
  scene.wide.build(scene.bvh);
  return scene;
}

Scene make_scene(CloudKind kind, std::size_t n, float width, std::uint64_t seed) {
  return build_scene(rtnn::testing::make_cloud(kind, n, seed), width);
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
/// via validate()) over regular and degenerate geometry.
TEST(CompressedWideBvh, ConservativeQuantizationProperty) {
  std::vector<Scene> scenes;
  scenes.push_back(make_scene(CloudKind::kUniform, 5000, 0.05f, 7));
  scenes.push_back(make_scene(CloudKind::kLidar, 4000,
                              2.0f * rtnn::testing::typical_radius(CloudKind::kLidar), 9));
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
          exact = scene.bvh.prim_aabbs()[order[leaves[node.leaf_index(i)]]];
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
/// leave the SAH inflation at exactly 1 (the build and the refit sum the
/// same terms in the same order) — on a tree under the subtree cut and on
/// one large enough to take the subtree path.
TEST(CompressedWideBvh, IdentityRefitIsBitIdentical) {
  const float width = 2.0f * rtnn::testing::typical_radius(CloudKind::kLidar);
  for (const std::size_t n : {std::size_t{4000}, std::size_t{60'000}}) {
    Scene scene = make_scene(CloudKind::kLidar, n, width, 19);
    EXPECT_EQ(scene.wide.subtree_offsets().size() > 1, n > 4000) << "n=" << n;
    const std::vector<CompressedWideNode> nodes(scene.wide.compressed_nodes().begin(),
                                                scene.wide.compressed_nodes().end());
    const std::vector<Aabb> prims(scene.wide.ordered_prim_aabbs().begin(),
                                  scene.wide.ordered_prim_aabbs().end());
    scene.wide.refit(scene.aabbs);
    EXPECT_EQ(scene.wide.sah_inflation(), 1.0) << "n=" << n;
    ASSERT_EQ(scene.wide.compressed_nodes().size(), nodes.size());
    ASSERT_EQ(scene.wide.ordered_prim_aabbs().size(), prims.size());
    EXPECT_EQ(std::memcmp(scene.wide.compressed_nodes().data(), nodes.data(),
                          nodes.size() * sizeof(CompressedWideNode)),
              0)
        << "n=" << n;
    EXPECT_EQ(std::memcmp(scene.wide.ordered_prim_aabbs().data(), prims.data(),
                          prims.size() * sizeof(Aabb)),
              0)
        << "n=" << n;
  }
}

/// rt::quantize_node — the AVX2 search or its scalar fallback, whichever
/// this build selected — against the test-local copy of the scalar
/// estimate-and-fix-up quantizer: anchor, exponent and all 48 lane bytes
/// identical on adversarial slot sets of 1 to 8 valid slots. The slots
/// past the count hold junk (huge boxes and boxes below the anchor) that
/// must not touch the result.
TEST(CompressedWideBvh, QuantizerMatchesTheScalarOracle) {
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  Pcg32 rng(2024);
  const auto uniform = [&](float lo, float hi) { return lo + (hi - lo) * rng.next_float(); };
  // One slot bound pair on one axis, by scenario.
  const auto axis_pair = [&](int scenario, float& lo, float& hi) {
    switch (scenario) {
      case 0:  // ordinary boxes
        lo = uniform(-1.0f, 1.0f);
        hi = lo + uniform(0.0f, 0.5f);
        break;
      case 1:  // anchors near +3e38
        lo = uniform(2.9e38f, 3.3e38f);
        hi = std::min(kMax, lo + uniform(0.0f, 1e37f));
        break;
      case 2:  // an axis spanning -3e38 to +3e38: the extent overflows
        lo = uniform(-kMax, -2.9e38f);
        hi = uniform(2.9e38f, kMax);
        break;
      case 3:  // zero extent: every slot on one plane
        lo = hi = 0.375f;
        break;
      case 4:  // denormal extents around zero
        lo = -kDenorm * static_cast<float>(rng.next_bounded(4));
        hi = kDenorm * static_cast<float>(rng.next_bounded(1000));
        break;
      case 5: {  // signed zeros and tiny boxes
        const float choices[] = {-0.0f, 0.0f, 1e-30f, -1e-30f};
        lo = choices[rng.next_bounded(4)];
        hi = std::max(lo, choices[rng.next_bounded(4)]);
        break;
      }
      case 6: {  // a few ulps above a huge anchor: the q = 255 retry
        const float base = rng.next_bounded(2) ? 1e30f : -3e37f;
        lo = base;
        for (std::uint32_t k = rng.next_bounded(3); k > 0; --k) lo = std::nextafter(lo, kMax);
        hi = lo;
        for (std::uint32_t k = 1 + rng.next_bounded(40); k > 0; --k) hi = std::nextafter(hi, kMax);
        break;
      }
      default: {  // extents just under a power of two: 255 * 2^(e0) falls short
        lo = uniform(-4.0f, 4.0f);
        hi = lo + std::ldexp(0.999f + 0.001f * rng.next_float(),
                             static_cast<int>(rng.next_bounded(20)) - 10);
        break;
      }
    }
  };
  const Aabb junk[] = {Aabb{{-kMax, -kMax, -kMax}, {kMax, kMax, kMax}},
                       Aabb{{-1e30f, -1e30f, -1e30f}, {-1e29f, -1e29f, -1e29f}},
                       Aabb{{5.0f, 5.0f, 5.0f}, {1e38f, 1e38f, 1e38f}}};
  int retries = 0;
  for (int trial = 0; trial < 8 * 8 * 40; ++trial) {
    const std::uint32_t count = 1 + static_cast<std::uint32_t>(trial % 8);
    const int scenario = (trial / 8) % 8;
    Aabb slots[kWideBvhWidth];
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      if (i >= count) {
        slots[i] = junk[(trial + i) % 3];
        continue;
      }
      // Mix scenarios across axes now and then, so one node holds an
      // ordinary axis beside an adversarial one.
      float lo[3], hi[3];
      for (int a = 0; a < 3; ++a) axis_pair(trial % 5 == a ? 0 : scenario, lo[a], hi[a]);
      slots[i] = Aabb{{lo[0], lo[1], lo[2]}, {hi[0], hi[1], hi[2]}};
    }
    CompressedWideNode want{};
    want.count = static_cast<std::uint8_t>(count);
    CompressedWideNode got = want;
    rtnn::testing::oracle::quantize_node(want, slots);
    quantize_node(got, slots);
    const std::string label = "trial " + std::to_string(trial) + " scenario " +
                              std::to_string(scenario) + " count " + std::to_string(count);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.anchor_x), std::bit_cast<std::uint32_t>(want.anchor_x))
        << label;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.anchor_y), std::bit_cast<std::uint32_t>(want.anchor_y))
        << label;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.anchor_z), std::bit_cast<std::uint32_t>(want.anchor_z))
        << label;
    EXPECT_EQ(got.exp_x, want.exp_x) << label;
    EXPECT_EQ(got.exp_y, want.exp_y) << label;
    EXPECT_EQ(got.exp_z, want.exp_z) << label;
    EXPECT_TRUE(std::equal(got.qlox, got.qlox + 48, want.qlox)) << label << ": lane bytes differ";
    // Count the axes whose exponent needed the retry past its estimate.
    float content_hi[3] = {-kMax, -kMax, -kMax};
    for (std::uint32_t i = 0; i < count; ++i) {
      content_hi[0] = std::max(content_hi[0], slots[i].hi.x);
      content_hi[1] = std::max(content_hi[1], slots[i].hi.y);
      content_hi[2] = std::max(content_hi[2], slots[i].hi.z);
    }
    const float anchors[3] = {want.anchor_x, want.anchor_y, want.anchor_z};
    const int exps[3] = {want.exp_x, want.exp_y, want.exp_z};
    for (int a = 0; a < 3; ++a) {
      if (exps[a] != rtnn::testing::oracle::initial_exponent(content_hi[a] - anchors[a])) ++retries;
    }
  }
  EXPECT_GT(retries, 100) << "the adversarial sets must exercise the exponent retry";
}

}  // namespace
}  // namespace rtnn::rt
