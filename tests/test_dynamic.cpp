// Dynamic point-cloud lifecycle tests: the wide BVH's bottom-up refit and
// its binary-tree SAH signal, Accel coherence across refits, the
// refit-vs-rebuild cost policy, NeighborSearch's kept base accel (reuse,
// reset, refit and rebuild across frames), and the datasets motion models.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.hpp"
#include "datasets/motion.hpp"
#include "optix/optix.hpp"
#include "rtnn/rtnn.hpp"
#include "test_util.hpp"

namespace rtnn {
namespace {

using rtnn::testing::CloudKind;

std::vector<Vec3> jitter_cloud(const std::vector<Vec3>& points, float sigma,
                               std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Vec3> moved = points;
  for (Vec3& p : moved) {
    p += Vec3{rng.normal() * sigma, rng.normal() * sigma, rng.normal() * sigma};
  }
  return moved;
}

std::vector<Aabb> cubes(std::span<const Vec3> points, float width) {
  std::vector<Aabb> aabbs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) aabbs[i] = Aabb::cube(points[i], width);
  return aabbs;
}

// --- rt::WideBvh refit ------------------------------------------------------

rt::WideBvh collapse(std::span<const Aabb> boxes) {
  rt::Bvh bvh;
  bvh.build(boxes);
  rt::WideBvh wide;
  wide.build(bvh);
  return wide;
}

TEST(WideBvhRefit, PreservesInvariantsAndTopology) {
  // Sized past the parallel-level-sweep threshold (2k wide nodes) so
  // multi-thread runs exercise the level schedule, not just the serial
  // sweep.
  const std::vector<Vec3> before = rtnn::testing::make_cloud(CloudKind::kUniform, 20'000, 3);
  const std::vector<Vec3> after = jitter_cloud(before, 0.01f, 17);

  rt::WideBvh wide = collapse(cubes(before, 0.1f));
  const std::size_t node_count = wide.compressed_nodes().size();
  const std::size_t leaf_count = wide.leaves().size();
  const std::vector<std::uint32_t> order(wide.prim_order().begin(), wide.prim_order().end());

  wide.refit(after, 0.1f);
  wide.validate();
  EXPECT_EQ(wide.compressed_nodes().size(), node_count) << "refit must not change topology";
  EXPECT_EQ(wide.leaves().size(), leaf_count);
  EXPECT_TRUE(std::equal(order.begin(), order.end(), wide.prim_order().begin()))
      << "refit must not reorder primitives";
  // The leaf-ordered snapshot must be the moved boxes.
  for (std::size_t s = 0; s < order.size(); ++s) {
    ASSERT_EQ(wide.ordered_prim_aabbs()[s], Aabb::cube(after[order[s]], 0.1f)) << "slot " << s;
  }
}

TEST(WideBvhRefit, IdentityRefitKeepsBoundsAndInflationAtOne) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kLidar, 3000, 5);
  rt::WideBvh wide = collapse(cubes(points, 2.0f));
  const Aabb bounds_before = wide.scene_bounds();

  wide.refit(cubes(points, 2.0f));
  wide.validate();
  EXPECT_EQ(wide.scene_bounds(), bounds_before);
  EXPECT_NEAR(wide.sah_inflation(), 1.0, 1e-6);
}

TEST(WideBvhRefit, SahInflationGrowsWhenCorrespondenceBreaks) {
  // Shuffling the positions destroys spatial correspondence: every leaf
  // box teleports, internal boxes balloon, and the quality metric must see
  // it — that observability is what drives the rebuild policy.
  std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 4000, 9);
  rt::WideBvh wide = collapse(cubes(points, 0.05f));

  data::shuffle(points, 123);
  wide.refit(cubes(points, 0.05f));
  wide.validate();  // still a correct tree, just a bad one
  EXPECT_GT(wide.sah_inflation(), 2.0);
}

TEST(WideBvhRefit, CountMismatchThrows) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 1000, 2);
  rt::WideBvh wide = collapse(cubes(points, 0.1f));
  std::vector<Aabb> wrong = cubes(points, 0.1f);
  wrong.pop_back();
  EXPECT_THROW(wide.refit(wrong), Error);
  EXPECT_THROW(wide.refit(std::span<const Vec3>(points).subspan(1), 0.1f), Error);
}

TEST(WideBvhRefit, EmptyTreeRefitsToEmpty) {
  rt::WideBvh wide = collapse({});
  EXPECT_NO_THROW(wide.refit(std::span<const Aabb>{}));
  EXPECT_TRUE(wide.empty());
}

/// The test-local reference: `bvh`'s topology re-bounded over `boxes` (id
/// order) with exact bottom-up unions, and its SAH cost — the area of
/// every node (a leaf holds one primitive), over the root area.
struct BinaryRefit {
  Aabb root;
  double sah = 0.0;
};

BinaryRefit binary_refit(const rt::Bvh& bvh, std::span<const Aabb> boxes) {
  const auto nodes = bvh.nodes();
  std::vector<Aabb> bounds(nodes.size());
  double sum = 0.0;
  for (std::size_t i = nodes.size(); i-- > 0;) {  // children follow their parent
    const rt::BvhNode& node = nodes[i];
    bounds[i] = node.is_leaf() ? boxes[bvh.prim_order()[node.first]]
                               : unite(bounds[node.left], bounds[node.right]);
    sum += static_cast<double>(bounds[i].surface_area());
  }
  return {bounds[0], sum / static_cast<double>(bounds[0].surface_area())};
}

/// The refit policy's signal is the binary tree's SAH, re-derived by the
/// wide tree alone from its expand masks: within 1e-9 relative of the
/// reference in every frame, for deep trees, a lidar cloud and a
/// one-leaf tree (one point) — and the scene bounds are the reference
/// root's bits.
TEST(WideBvhRefit, SahInflationIsTheBinaryTreesSah) {
  struct Case {
    const char* label;
    std::vector<Vec3> points;
    float width;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform", rtnn::testing::make_cloud(CloudKind::kUniform, 20'000, 31),
                   0.05f});
  cases.push_back({"nbody", rtnn::testing::make_cloud(CloudKind::kNBody, 5000, 32), 0.1f});
  cases.push_back({"lidar", rtnn::testing::make_cloud(CloudKind::kLidar, 3000, 33), 2.0f});
  cases.push_back({"one_point", {{0.25f, 0.5f, 0.75f}}, 0.1f});
  for (Case& c : cases) {
    std::vector<Aabb> boxes = cubes(c.points, c.width);
    rt::Bvh bvh;
    bvh.build(boxes);
    rt::WideBvh wide;
    wide.build(bvh);
    const double baseline = binary_refit(bvh, boxes).sah;
    EXPECT_EQ(wide.sah_inflation(), 1.0) << c.label;
    for (int frame = 1; frame <= 4; ++frame) {
      if (frame == 4) {
        data::shuffle(c.points, 7);  // a frame that wrecks the topology's fit
      } else {
        c.points = jitter_cloud(c.points, 0.01f * c.width * frame, 40 + frame);
      }
      boxes = cubes(c.points, c.width);
      wide.refit(boxes);
      const BinaryRefit ref = binary_refit(bvh, boxes);
      const double expected = ref.sah / baseline;
      EXPECT_NEAR(wide.sah_inflation(), expected, 1e-9 * expected)
          << c.label << " frame " << frame;
      EXPECT_EQ(wide.scene_bounds(), ref.root) << c.label << " frame " << frame;
    }
  }
}

// --- ox::Accel refit ---------------------------------------------------------

/// Records the primitive set each ray's IS shader saw.
struct CollectPipeline {
  std::span<const Vec3> queries;
  std::vector<std::vector<std::uint32_t>>* hits;
  Ray raygen(std::uint32_t i) const { return Ray::short_ray(queries[i]); }
  ox::TraceAction intersection(std::uint32_t ray, std::uint32_t prim) {
    (*hits)[ray].push_back(prim);
    return ox::TraceAction::kContinue;
  }
};

/// Launches on an ox::Accel (its wide tree) or a binary rt::Bvh.
template <typename Index>
std::vector<std::vector<std::uint32_t>> collect_hits(const Index& index,
                                                     std::span<const Vec3> queries) {
  std::vector<std::vector<std::uint32_t>> hits(queries.size());
  CollectPipeline pipeline{queries, &hits};
  ox::launch(index, pipeline, static_cast<std::uint32_t>(queries.size()));
  for (auto& h : hits) std::sort(h.begin(), h.end());
  return hits;
}

TEST(AccelRefit, RefitAndRebuildSeeIdenticalCandidateSets) {
  // The acceptance bar of the lifecycle: a refitted accel must yield
  // byte-identical candidate sets to a from-scratch build of the moved
  // cloud and to the binary walk of a tree over the moved boxes.
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const std::vector<Vec3> before = rtnn::testing::make_cloud(kind, 4000, 13);
    const float radius = rtnn::testing::typical_radius(kind);
    const std::vector<Vec3> after = jitter_cloud(before, 0.05f * radius, 29);
    const std::vector<Vec3> queries = data::jittered_queries(after, 500, 0.3f * radius, 31);

    const ox::Context ctx;
    ox::Accel refitted = ctx.build_accel(cubes(before, 2.0f * radius));
    refitted.refit(cubes(after, 2.0f * radius));
    const ox::Accel fresh = ctx.build_accel(cubes(after, 2.0f * radius));
    rt::Bvh binary;  // the binary walk's tree over the moved boxes
    binary.build(cubes(after, 2.0f * radius));

    const auto label = rtnn::testing::to_string(kind);
    const auto refitted_hits = collect_hits(refitted, queries);
    EXPECT_EQ(refitted_hits, collect_hits(fresh, queries)) << label << "/wide";
    EXPECT_EQ(refitted_hits, collect_hits(binary, queries)) << label << "/binary";
  }
}

TEST(AccelRefit, SharedDataCopiesOnWrite) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 1500, 6);
  const ox::Context ctx;
  ox::Accel a = ctx.build_accel(cubes(points, 0.1f));
  const ox::Accel snapshot = a;  // another handle on the same build product

  const std::vector<Vec3> moved = jitter_cloud(points, 0.05f, 41);
  a.refit(cubes(moved, 0.1f));
  // The snapshot still answers for the original cloud.
  EXPECT_EQ(rtnn::testing::prim_box(snapshot.wide_bvh(), 3), Aabb::cube(points[3], 0.1f));
  EXPECT_EQ(rtnn::testing::prim_box(a.wide_bvh(), 3), Aabb::cube(moved[3], 0.1f));
}

TEST(AccelRefit, UnbuiltAccelThrows) {
  ox::Accel accel;
  EXPECT_THROW(accel.refit({}), Error);
}

// --- refit-vs-rebuild policy -------------------------------------------------

TEST(IndexPolicy, RefitsWhileCheapAndHealthy) {
  CostModel model;  // defaults: k_refit << k1, inflation threshold > 1
  EXPECT_EQ(choose_index_update(model, 1.0), IndexUpdate::kRefit);
  EXPECT_EQ(choose_index_update(model, model.max_sah_inflation * 0.99),
            IndexUpdate::kRefit);
}

TEST(IndexPolicy, RebuildsOnQualityOrCostGrounds) {
  CostModel model;
  EXPECT_EQ(choose_index_update(model, model.max_sah_inflation * 1.01),
            IndexUpdate::kRebuild);
  // A substrate where refit is no cheaper than building must never refit.
  CostModel slow_refit;
  slow_refit.k_refit = slow_refit.k1;
  EXPECT_EQ(choose_index_update(slow_refit, 1.0), IndexUpdate::kRebuild);
}

// --- NeighborSearch's kept base accel ----------------------------------------

TEST(NeighborSearchDynamic, RefitFrameMatchesFreshSearchExactly) {
  for (const SearchMode mode : {SearchMode::kRange, SearchMode::kKnn}) {
    const std::vector<Vec3> before =
        rtnn::testing::make_cloud(CloudKind::kUniform, 4000, 19);
    const std::vector<Vec3> after = jitter_cloud(before, 0.002f, 37);
    const std::vector<Vec3> queries = data::jittered_queries(after, 600, 0.02f, 43);

    SearchParams params;
    params.mode = mode;
    params.radius = 0.06f;
    params.k = mode == SearchMode::kRange ? 4096 : 16;  // range: never truncate
    params.opts = OptimizationFlags::none();  // every launch uses the base accel

    NeighborSearch dynamic;
    dynamic.set_points(before);
    (void)dynamic.search(queries, params);  // frame 0: builds the kept accel
    dynamic.update_points(after);
    NeighborSearch::Report report;
    const NeighborResult refitted = dynamic.search(queries, params, &report);

    EXPECT_EQ(report.accel_refits, 1u);
    EXPECT_EQ(report.accel_rebuilds, 0u);
    EXPECT_GT(report.time.refit, 0.0);
    EXPECT_EQ(report.time.bvh, 0.0) << "refit frame must not pay a build";

    const NeighborResult fresh = rtnn::search(after, queries, params);
    const char* label = mode == SearchMode::kRange ? "refit/range" : "refit/knn";
    if (mode == SearchMode::kRange) {
      rtnn::testing::expect_same_neighbor_sets(refitted, fresh, label);
    } else {
      rtnn::testing::expect_knn_identical(refitted, fresh, label);
    }
  }
}

TEST(NeighborSearchDynamic, UpdateBeforeSetOrCountChangeThrows) {
  NeighborSearch search;
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 500, 3);
  EXPECT_THROW(search.update_points(points), Error);
  search.set_points(points);
  const std::span<const Vec3> fewer(points.data(), 400);
  EXPECT_THROW(search.update_points(fewer), Error);
}

/// The lifecycle rule, monolithic and tiled: a search on unchanged points
/// reuses the kept accel (no build, identical rows); set_points(),
/// set_tiling() and a new radius rebuild it; update_points() has the next
/// search refit it, after which it is kept again.
TEST(NeighborSearchDynamic, KeepsTheBaseAccelUntilThePointsChange) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 8);
  const std::vector<Vec3> moved = jitter_cloud(points, 0.002f, 9);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 8;
  params.opts = OptimizationFlags::none();
  TileOptions tiling;
  tiling.tile_threshold = 256;  // 2000 points: a tiled base accel
  tiling.max_tiles = 8;
  tiling.lazy_build = false;    // every touched tile is built, so refits == touched

  for (const bool tiled : {false, true}) {
    const std::string label = tiled ? "tiled" : "monolithic";
    const TileOptions options = tiled ? tiling : TileOptions{};
    NeighborSearch search;
    search.set_tiling(options);
    search.set_points(points);

    NeighborSearch::Report first, second;
    const NeighborResult built = search.search(points, params, &first);
    const NeighborResult reused = search.search(points, params, &second);
    EXPECT_GT(first.time.bvh, 0.0) << label;
    EXPECT_EQ(second.time.bvh, 0.0) << label << ": unchanged points reuse the accel";
    EXPECT_EQ(second.time.refit, 0.0) << label;
    EXPECT_EQ(second.tile_count, first.tile_count) << label;
    EXPECT_EQ(tiled, first.tile_count > 0) << label;
    rtnn::testing::expect_knn_identical(reused, built, label + "/reuse");

    const auto rebuilds = [&](const char* step, const SearchParams& p) {
      NeighborSearch::Report report;
      (void)search.search(points, p, &report);
      EXPECT_GT(report.time.bvh, 0.0) << label << ": " << step << " must rebuild";
    };
    search.set_points(points);
    rebuilds("set_points()", params);
    SearchParams wider = params;
    wider.radius *= 1.5f;
    rebuilds("a new radius", wider);
    rebuilds("the old radius again", params);  // one kept accel, not one per width
    search.set_tiling(options);
    rebuilds("set_tiling()", params);

    search.update_points(moved);
    NeighborSearch::Report refit, after;
    const NeighborResult refitted = search.search(moved, params, &refit);
    EXPECT_EQ(refit.time.bvh, 0.0) << label << ": a small move refits";
    EXPECT_GT(refit.time.refit, 0.0) << label;
    if (tiled) {
      EXPECT_GT(refit.tiles_touched, 0u) << label;
      EXPECT_EQ(refit.tile_refits, refit.tiles_touched) << label;
    } else {
      EXPECT_EQ(refit.accel_refits, 1u) << label;
    }
    rtnn::testing::expect_knn_identical(refitted, rtnn::search(moved, moved, params),
                                        label + "/refit");
    (void)search.search(moved, params, &after);
    EXPECT_EQ(after.time.bvh + after.time.refit, 0.0) << label << ": kept after the refit";
    EXPECT_EQ(after.accel_refits + after.tiles_touched, 0u) << label;
  }
}

TEST(NeighborSearchDynamic, StreamsRefittedFramesWithParity) {
  const std::size_t n = 3000;
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 8;
  params.opts = OptimizationFlags::none();

  data::DriftParams drift;
  drift.velocity = 0.002f;
  NeighborSearch search;
  data::DriftMotion motion(rtnn::testing::make_cloud(CloudKind::kUniform, n, 21), drift);

  for (int frame = 0; frame < 4; ++frame) {
    const data::PointCloud& cloud = frame == 0 ? motion.points() : motion.step();
    if (frame == 0) {
      search.set_points(cloud);
    } else {
      search.update_points(cloud);
    }
    NeighborSearch::Report report;
    const NeighborResult result = search.search(cloud, params, &report);
    ASSERT_EQ(result.num_queries(), n);

    if (frame == 0) {
      EXPECT_GT(report.time.bvh, 0.0) << "first frame builds";
      EXPECT_EQ(report.accel_refits, 0u);
    } else {
      EXPECT_EQ(report.accel_refits, 1u) << "frame " << frame;
      EXPECT_GT(report.time.refit, 0.0) << "frame " << frame;
      EXPECT_EQ(report.time.bvh, 0.0) << "frame " << frame;
      EXPECT_GE(report.sah_inflation, 1.0 - 1e-6);
    }
    // Every frame must agree with a from-scratch search of that frame.
    const NeighborResult fresh = rtnn::search(cloud, cloud, params);
    rtnn::testing::expect_knn_identical(result, fresh, "frame " + std::to_string(frame));
  }
}

TEST(NeighborSearchDynamic, PolicyRebuildsAfterQualityCollapse) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.06f;
  params.k = 8;
  params.opts = OptimizationFlags::none();

  NeighborSearch search;
  std::vector<Vec3> cloud = rtnn::testing::make_cloud(CloudKind::kUniform, 4000, 33);
  search.set_points(cloud);
  (void)search.search(cloud, params);  // build
  // A correspondence-destroying frame: refit happens (decision precedes
  // the damage being observable) but inflation is then measured far past
  // the default model's guard.
  data::shuffle(cloud, 55);
  search.update_points(cloud);
  NeighborSearch::Report scrambled;
  (void)search.search(cloud, params, &scrambled);
  EXPECT_EQ(scrambled.accel_refits, 1u);
  EXPECT_GT(scrambled.sah_inflation, 2.0 * CostModel{}.max_sah_inflation);
  // The next frame sees the degraded index and rebuilds.
  cloud = jitter_cloud(cloud, 0.001f, 77);
  search.update_points(cloud);
  NeighborSearch::Report recovered;
  (void)search.search(cloud, params, &recovered);
  EXPECT_EQ(recovered.accel_rebuilds, 1u);
  EXPECT_EQ(recovered.accel_refits, 0u);
  EXPECT_LT(recovered.sah_inflation, 1.1);
}

TEST(NeighborSearchDynamic, ResizedCloudIsAFreshUpload) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 4;
  params.opts = OptimizationFlags::none();
  NeighborSearch search;

  std::vector<Vec3> cloud = rtnn::testing::make_cloud(CloudKind::kUniform, 1000, 3);
  search.set_points(cloud);
  (void)search.search(cloud, params);
  cloud.resize(900);  // a resize is a topology change: not a move
  EXPECT_THROW(search.update_points(cloud), Error);
  search.set_points(cloud);
  NeighborSearch::Report report;
  const NeighborResult result = search.search(cloud, params, &report);
  EXPECT_EQ(result.num_queries(), 900u);
  EXPECT_EQ(report.accel_refits, 0u);
  EXPECT_GT(report.time.bvh, 0.0);
  rtnn::testing::expect_knn_identical(result, rtnn::search(cloud, cloud, params), "resized");
}

TEST(NeighborSearchDynamic, SeparateQuerySetSupported) {
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = 0.08f;
  params.k = 64;
  params.opts = OptimizationFlags::none();
  NeighborSearch search;

  const std::vector<Vec3> cloud = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 51);
  search.set_points(cloud);
  (void)search.search(cloud, params);  // the self-query frame builds
  const std::vector<Vec3> moved = jitter_cloud(cloud, 0.002f, 53);
  search.update_points(moved);
  const std::vector<Vec3> queries = data::jittered_queries(moved, 250, 0.02f, 52);
  NeighborSearch::Report report;
  const NeighborResult result = search.search(queries, params, &report);
  ASSERT_EQ(result.num_queries(), queries.size());
  EXPECT_EQ(report.accel_refits, 1u);
  rtnn::testing::expect_all_within_radius(moved, queries, result, params.radius,
                                          "moved/queries");
}

// --- datasets motion models --------------------------------------------------

TEST(MotionModels, DriftKeepsCountAndStaysNearBounds) {
  data::DriftParams params;
  params.velocity = 0.01f;
  data::DriftMotion motion(rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 61),
                           params);
  const data::PointCloud frame0 = motion.points();
  const Aabb box = data::bounds(frame0);
  for (int i = 0; i < 10; ++i) motion.step();
  const data::PointCloud& frame10 = motion.points();
  ASSERT_EQ(frame10.size(), frame0.size());
  EXPECT_NE(frame10[0], frame0[0]) << "points must actually move";
  const Aabb roam = box.expanded(0.1f);
  for (const Vec3& p : frame10) {
    EXPECT_TRUE(roam.contains(p)) << "drift must bounce, not disperse";
  }
}

TEST(MotionModels, DriftIsDeterministic) {
  const data::PointCloud cloud = rtnn::testing::make_cloud(CloudKind::kUniform, 500, 71);
  data::DriftParams params;
  data::DriftMotion a(cloud, params);
  data::DriftMotion b(cloud, params);
  a.step();
  b.step();
  EXPECT_EQ(a.points(), b.points());
}

TEST(MotionModels, LidarSweepFramesShareSizeAndSceneButMove) {
  data::LidarParams base;
  base.target_points = 20'000;
  base.seed = 5;
  const data::LidarSweep sweep(base, /*frame_advance=*/1.5f);
  const data::PointCloud f0 = sweep.frame(0);
  const data::PointCloud f2 = sweep.frame(2);
  ASSERT_EQ(f0.size(), base.target_points);
  ASSERT_EQ(f2.size(), base.target_points);
  EXPECT_NE(f0[100], f2[100]);
  // The scanner advanced +x: the later frame's cloud centroid follows.
  auto mean_x = [](const data::PointCloud& c) {
    double x = 0.0;
    for (const Vec3& p : c) x += p.x;
    return x / static_cast<double>(c.size());
  };
  EXPECT_GT(mean_x(f2), mean_x(f0));
}

}  // namespace
}  // namespace rtnn
