#include "rtcore/bvh.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/timing.hpp"

namespace rtnn::rt {
namespace {

std::vector<Aabb> point_aabbs(std::size_t n, float width, std::uint64_t seed,
                              const Aabb& box = {{0, 0, 0}, {1, 1, 1}}) {
  Pcg32 rng(seed);
  std::vector<Aabb> aabbs;
  aabbs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    aabbs.push_back(Aabb::cube(rng.uniform_in_aabb(box), width));
  }
  return aabbs;
}

TEST(Bvh, EmptyBuild) {
  Bvh bvh;
  bvh.build({});
  EXPECT_TRUE(bvh.empty());
  bvh.validate();
}

TEST(Bvh, SinglePrimitive) {
  Bvh bvh;
  const Aabb box = Aabb::cube({1, 2, 3}, 0.5f);
  bvh.build(std::span<const Aabb>(&box, 1));
  EXPECT_EQ(bvh.prim_count(), 1u);
  EXPECT_EQ(bvh.nodes().size(), 1u);
  EXPECT_TRUE(bvh.nodes()[0].is_leaf());
  bvh.validate();
}

TEST(Bvh, StructuralInvariantsRandom) {
  for (const std::size_t n : {2u, 3u, 17u, 100u, 5000u}) {
    Bvh bvh;
    const auto aabbs = point_aabbs(n, 0.01f, n);
    bvh.build(aabbs);
    EXPECT_EQ(bvh.prim_count(), n);
    bvh.validate();
    const auto stats = bvh.stats();
    EXPECT_EQ(stats.node_count, 2 * n - 1);  // binary tree, one primitive per leaf
    EXPECT_EQ(stats.leaf_count, n);
  }
}

TEST(Bvh, DuplicatePointsFallBackToMedianSplit) {
  // All-identical AABBs give identical Morton codes — the degenerate case
  // the median-split fallback handles.
  std::vector<Aabb> aabbs(257, Aabb::cube({0.5f, 0.5f, 0.5f}, 0.1f));
  Bvh bvh;
  bvh.build(aabbs);
  bvh.validate();
  EXPECT_EQ(bvh.prim_count(), 257u);
  // Median splits keep depth logarithmic.
  EXPECT_LE(bvh.stats().max_depth, 16u);
}

TEST(Bvh, SceneBoundsCoverAllPrimitives) {
  const auto aabbs = point_aabbs(500, 0.05f, 11);
  Bvh bvh;
  bvh.build(aabbs);
  for (const Aabb& box : aabbs) {
    EXPECT_TRUE(bvh.scene_bounds().contains(box));
  }
  EXPECT_EQ(bvh.nodes()[0].bounds, bvh.scene_bounds());
}

TEST(Bvh, MortonOrderingKeepsTreeShallow) {
  const auto aabbs = point_aabbs(100000, 0.001f, 13);
  Bvh bvh;
  bvh.build(aabbs);
  // A spatially sorted binary tree over 100k uniform prims should be around
  // log2(1e5) ≈ 17 deep; allow generous slack but catch linear-depth bugs.
  EXPECT_LE(bvh.stats().max_depth, 64u);
  bvh.validate();
}

TEST(Bvh, RejectsEmptyPrimitive) {
  std::vector<Aabb> aabbs(3, Aabb::cube({0, 0, 0}, 1.0f));
  aabbs[1] = Aabb{};  // empty
  Bvh bvh;
  EXPECT_THROW(bvh.build(aabbs), Error);
}

TEST(Bvh, SahCostReasonable) {
  // Tight uniform points: SAH cost should be far below the prim count
  // (otherwise the hierarchy is not pruning anything).
  const auto aabbs = point_aabbs(10000, 0.001f, 17);
  Bvh bvh;
  bvh.build(aabbs);
  const auto stats = bvh.stats();
  EXPECT_GT(stats.sah_cost, 1.0);
  EXPECT_LT(stats.sah_cost, 10000.0 / 4.0);
}

TEST(Bvh, RebuildReplacesPreviousTree) {
  Bvh bvh;
  bvh.build(point_aabbs(100, 0.01f, 19));
  bvh.build(point_aabbs(10, 0.01f, 23));
  EXPECT_EQ(bvh.prim_count(), 10u);
  bvh.validate();
}

/// The parallel build places every node at its serial pre-order slot:
/// node and primitive arrays are the same bytes at 1, 2 and 4 threads.
/// (The cache simulator addresses binary nodes by index, so a
/// thread-dependent layout would move Figure 6's hit rates.)
TEST(Bvh, ArraysAreIdenticalAtAnyThreadCount) {
  const auto aabbs = point_aabbs(50000, 0.01f, 37);
  const auto bytes_of = [](auto span) {
    std::vector<unsigned char> out(span.size_bytes());
    std::memcpy(out.data(), span.data(), out.size());
    return out;
  };
  const auto snapshot = [&](int threads) {
    set_num_threads(threads);
    Bvh bvh;
    bvh.build(aabbs);
    bvh.validate();
    return std::vector{bytes_of(bvh.nodes()), bytes_of(bvh.prim_order())};
  };
  const auto serial = snapshot(1);
  for (const int threads : {2, 4}) {
    const auto parallel = snapshot(threads);
    EXPECT_TRUE(parallel[0] == serial[0]) << "nodes at " << threads << " threads";
    EXPECT_TRUE(parallel[1] == serial[1]) << "prim_order at " << threads << " threads";
  }
  set_num_threads(0);
}

TEST(Bvh, BuildTimeLinearInPrimCountShape) {
  // Sanity version of Figure 15: 4x the prims should take clearly less
  // than ~10x the time (i.e., no quadratic blow-up). Loose bound to stay
  // robust on shared CI machines.
  const auto small = point_aabbs(50000, 0.002f, 29);
  const auto large = point_aabbs(200000, 0.002f, 31);
  Bvh bvh;
  Timer t1;
  bvh.build(small);
  const double ts = t1.elapsed();
  Timer t2;
  bvh.build(large);
  const double tl = t2.elapsed();
  EXPECT_LT(tl, ts * 10.0 + 0.05);
}

}  // namespace
}  // namespace rtnn::rt
