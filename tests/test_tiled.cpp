// Two-level (TLAS/BLAS) index tests: the Morton tile planner,
// rt::TiledBvh structure and lazy build, per-tile copy-on-write across updates, tiled-vs-monolithic
// search parity (static and over dynamic frame sequences), locality of
// per-frame update work, and the service-level tiling knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "core/aabb.hpp"
#include "core/morton.hpp"
#include "core/rng.hpp"
#include "datasets/motion.hpp"
#include "optix/optix.hpp"
#include "rtcore/tlas.hpp"
#include "rtcore/traversal.hpp"
#include "rtnn/stages.hpp"
#include "rtnn/tile_plan.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

namespace rtnn {
namespace {

using rtnn::testing::CloudKind;

// --- Tile planner ------------------------------------------------------------

TEST(TilePlanning, TileCountFollowsThresholdAndCap) {
  EXPECT_EQ(plan_tile_count(1000, 0, 16), 1u);     // threshold 0 = never tile
  EXPECT_EQ(plan_tile_count(1000, 1000, 16), 1u);  // at the threshold: whole
  EXPECT_EQ(plan_tile_count(1001, 1000, 16), 2u);  // one past: split
  EXPECT_EQ(plan_tile_count(5000, 1000, 16), 5u);  // ceil(n / threshold)
  EXPECT_EQ(plan_tile_count(5001, 1000, 16), 6u);
  EXPECT_EQ(plan_tile_count(100'000, 1000, 16), 16u);  // capped
  // max_tiles = 0 is the "unbounded" contract: the split follows
  // ceil(n / threshold) however large the cloud, and threshold 0 is
  // still off.
  EXPECT_EQ(plan_tile_count(100'000, 1000, 0), 100u);
  EXPECT_EQ(plan_tile_count(1000, 1000, 0), 1u);
  EXPECT_EQ(plan_tile_count(1000, 0, 0), 1u);
}

TEST(TilePlanning, SingleTileKeepsIdentityOrder) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 200, 2917);
  const std::vector<std::vector<std::uint32_t>> tiles = plan_tiles(points, 1);
  ASSERT_EQ(tiles.size(), 1u);
  std::vector<std::uint32_t> iota(points.size());
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT_EQ(tiles[0], iota);
}

TEST(TilePlanning, TilesAreNearEqualMortonRuns) {
  // The split is pinned exactly: ids stably sorted by their 63-bit Morton
  // code over the cloud bounds, cut into runs whose sizes differ by at
  // most one (the larger runs first). Every id lands in one tile.
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kNBody, 500, 2917);
  Aabb bounds;
  for (const Vec3& p : points) bounds.grow(p);
  std::vector<std::uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return morton3d_63(points[a], bounds) < morton3d_63(points[b], bounds);
  });
  for (const std::uint32_t num_tiles : {2u, 5u, 8u}) {
    SCOPED_TRACE(num_tiles);
    const std::vector<std::vector<std::uint32_t>> tiles = plan_tiles(points, num_tiles);
    ASSERT_EQ(tiles.size(), num_tiles);
    std::vector<std::uint32_t> concatenated;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const std::size_t want = points.size() / num_tiles +
                               (t < points.size() % num_tiles ? 1 : 0);
      EXPECT_EQ(tiles[t].size(), want) << "tile " << t;
      concatenated.insert(concatenated.end(), tiles[t].begin(), tiles[t].end());
    }
    EXPECT_EQ(concatenated, order);
  }
}

TEST(TilePlanning, MoreTilesThanPointsClamps) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 3, 2917);
  EXPECT_EQ(plan_tiles(points, 16).size(), 3u);  // one point per tile at most
}

/// Records every primitive the IS stage sees, per ray (global ids).
struct Collector {
  std::vector<std::set<std::uint32_t>> hits;
  explicit Collector(std::size_t rays) : hits(rays) {}
  rt::TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    hits[ray].insert(prim);
    return rt::TraceAction::kContinue;
  }
};

std::vector<Ray> short_rays(std::span<const Vec3> queries) {
  std::vector<Ray> rays;
  rays.reserve(queries.size());
  for (const Vec3& q : queries) rays.push_back(Ray::short_ray(q));
  return rays;
}

TileOptions small_tiles(std::size_t threshold = 48) {
  TileOptions tiling;
  tiling.tile_threshold = threshold;
  return tiling;
}

// --- rt::TiledBvh structure --------------------------------------------------

TEST(TiledBvh, BuildPartitionsAndValidates) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 4000, 3);
  rt::TiledBvh tlas;
  tlas.build(points, 0.1f, plan_tiles(points, 8));
  tlas.validate();

  EXPECT_EQ(tlas.tile_count(), 8u);
  EXPECT_EQ(tlas.built_tile_count(), 8u) << "eager build must build every tile";
  EXPECT_EQ(tlas.prim_count(), points.size());
  EXPECT_EQ(tlas.top().prim_count(), 8u) << "one top-level prim per tile";

  const rt::TiledBvhStats stats = tlas.stats();
  EXPECT_EQ(stats.tile_count, 8u);
  EXPECT_EQ(stats.built_tiles, 8u);
  EXPECT_GT(stats.node_bytes, 0u);
  EXPECT_GT(stats.total_index_bytes, stats.node_bytes);

  // Tiles partition the ids.
  std::set<std::uint32_t> seen;
  for (std::uint32_t t = 0; t < tlas.tile_count(); ++t) {
    for (const std::uint32_t id : tlas.tile(t).prim_ids()) {
      EXPECT_TRUE(seen.insert(id).second) << "id " << id << " in two tiles";
    }
  }
  EXPECT_EQ(seen.size(), points.size());
}

/// Every array a wide tree keeps resident, by the vectors' own byte sizes.
std::uint64_t resident_bytes(const rt::WideBvh& wide) {
  return wide.compressed_nodes().size_bytes() + wide.leaves().size_bytes() +
         wide.prim_order().size_bytes() + wide.ordered_prim_aabbs().size_bytes() +
         wide.expand_masks().size_bytes() + wide.level_offsets().size_bytes();
}

/// The index_bytes gauge counts what the accel keeps resident and nothing
/// else: for a monolithic accel its one wide tree, for a tiled one the
/// built tiles' wide trees plus every array of the top tree — and the
/// search report carries the same number.
TEST(IndexGauge, CountsEveryResidentArray) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 6000, 47);
  const std::vector<Vec3> queries = rtnn::testing::make_cloud(CloudKind::kUniform, 300, 53);
  const float radius = rtnn::testing::typical_radius(CloudKind::kUniform);
  std::vector<Aabb> boxes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) boxes[i] = Aabb::cube(points[i], 2.0f * radius);
  const ox::Accel accel = ox::Context().build_accel(boxes);
  const std::uint64_t mono_bytes = resident_bytes(accel.wide_bvh());
  EXPECT_EQ(accel.wide_bvh().stats().total_index_bytes, mono_bytes);

  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = radius;
  params.k = 8;
  params.opts.partitioning = false;  // one launch over the base-width accel
  NeighborSearch mono;
  mono.set_points(points);
  NeighborSearch::Report report;
  mono.search(queries, params, &report);
  EXPECT_EQ(report.index_total_bytes, mono_bytes);

  rt::TiledBvh tlas;
  rt::TiledBuildOptions lazy;
  lazy.lazy_build = true;
  tlas.build(points, 2.0f * radius, plan_tiles(points, 12), lazy);
  Collector collector(queries.size() / 3);
  rt::trace(tlas, short_rays(std::span<const Vec3>(queries).subspan(0, queries.size() / 3)),
            collector);
  ASSERT_GT(tlas.built_tile_count(), 0u);
  std::uint64_t tiled_bytes = tlas.top().nodes().size_bytes() +
                              tlas.top().prim_order().size_bytes() +
                              tlas.top().prim_aabbs().size_bytes();
  for (std::uint32_t t = 0; t < tlas.tile_count(); ++t) {
    if (const rt::WideBvh* index = tlas.tile(t).index()) tiled_bytes += resident_bytes(*index);
  }
  EXPECT_EQ(tlas.stats().total_index_bytes, tiled_bytes);
}

TEST(TiledBvh, TraversalMatchesMonolithicCandidateSets) {
  // The exactness claim at the rt:: level: the TLAS walk must surface the
  // byte-identical candidate set (same global prim ids) the monolithic
  // wide walk surfaces.
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kLidar, 5000, 7);
  const float width = 2.5f;

  std::vector<Aabb> aabbs;
  aabbs.reserve(points.size());
  for (const Vec3& p : points) aabbs.push_back(Aabb::cube(p, width));
  rt::Bvh mono;
  mono.build(aabbs);
  rt::WideBvh wide;
  wide.build(mono);

  rt::TiledBvh tlas;
  tlas.build(points, width, plan_tiles(points, 11));
  tlas.validate();

  Pcg32 rng(99);
  std::vector<Vec3> queries;
  for (int i = 0; i < 300; ++i) queries.push_back(rng.uniform_in_aabb(tlas.scene_bounds()));
  const std::vector<Ray> rays = short_rays(queries);

  Collector expected(queries.size());
  rt::trace(wide, rays, expected);
  Collector got(queries.size());
  rt::trace(tlas, rays, got);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(got.hits[q], expected.hits[q]) << "query " << q;
  }
}

TEST(TiledBvh, TraceRejectsCacheSimulation) {
  // The two-level walk has no simulated address map: a cache-simulated
  // launch must be refused, not silently modeled wrong.
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 500, 2);
  rt::TiledBvh tlas;
  tlas.build(points, 0.1f, plan_tiles(points, 4));
  Collector collector(1);
  const std::vector<Ray> rays{Ray::short_ray(points[0])};
  rt::TraceConfig config;
  config.parallel = false;
  config.simulate_caches = true;
  EXPECT_THROW(rt::trace(tlas, rays, collector, config), Error);
}

TEST(TiledBvh, LazyTilesBuildOnFirstRoute) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 4000, 11);
  rt::TiledBvh tlas;
  rt::TiledBuildOptions options;
  options.lazy_build = true;
  tlas.build(points, 0.05f, plan_tiles(points, 16), options);
  tlas.validate();  // must hold for unbuilt tiles too

  EXPECT_EQ(tlas.built_tile_count(), 0u) << "lazy build defers every BLAS";
  // No BLAS bytes are resident yet; the total is just the small top tree.
  EXPECT_EQ(tlas.stats().node_bytes, 0u);
  const std::uint64_t top_bytes = tlas.stats().total_index_bytes;
  EXPECT_GT(top_bytes, 0u);

  // Rays confined to one corner of the scene must force only the tiles
  // they route through resident, not the whole index.
  const Aabb scene = tlas.scene_bounds();
  const Vec3 extent = scene.hi - scene.lo;
  Aabb corner = scene;
  corner.hi = scene.lo + Vec3{0.2f * extent.x, 0.2f * extent.y, 0.2f * extent.z};
  Pcg32 rng(5);
  std::vector<Vec3> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(rng.uniform_in_aabb(corner));
  Collector collector(queries.size());
  rt::trace(tlas, short_rays(queries), collector);

  EXPECT_GT(tlas.built_tile_count(), 0u);
  EXPECT_LT(tlas.built_tile_count(), tlas.tile_count())
      << "corner queries must not force the whole index resident";

  // ensure_all_built is the eager escape hatch.
  tlas.ensure_all_built();
  EXPECT_EQ(tlas.built_tile_count(), tlas.tile_count());
  tlas.validate();
}

TEST(TiledBvh, UpdateTouchesOnlyMovedTiles) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 3000, 13);
  rt::TiledBvh tlas;
  tlas.build(points, 0.08f, plan_tiles(points, 10));

  // Move exactly the members of tile 3.
  std::vector<Vec3> moved = points;
  const std::uint32_t target = 3;
  for (const std::uint32_t id : tlas.tile(target).prim_ids()) {
    moved[id].z += 0.01f;
  }

  std::vector<const rt::WideBvh*> before;
  for (std::uint32_t t = 0; t < tlas.tile_count(); ++t) {
    before.push_back(tlas.tile(t).index());
  }

  const rt::TiledUpdateStats stats =
      tlas.update(moved, [](double) { return rt::TileUpdate::kRefit; });
  tlas.validate();

  EXPECT_EQ(stats.tiles_touched, 1u);
  EXPECT_EQ(stats.tile_refits, 1u);
  EXPECT_EQ(stats.tile_rebuilds, 0u);
  for (std::uint32_t t = 0; t < tlas.tile_count(); ++t) {
    if (t == target) {
      EXPECT_NE(tlas.tile(t).index(), before[t]) << "touched tile must be replaced";
    } else {
      EXPECT_EQ(tlas.tile(t).index(), before[t]) << "untouched tile must be shared";
    }
  }
}

TEST(TiledBvh, CopiesShareTilesUntilUpdate) {
  // The per-tile copy-on-write contract: a copy answers the old frame
  // after the original absorbs motion, and untouched tiles stay shared.
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 17);
  rt::TiledBvh live;
  live.build(points, 0.08f, plan_tiles(points, 6));
  rt::TiledBvh snapshot = live;  // shares every tile

  std::vector<Vec3> moved = points;
  const std::uint32_t id = live.tile(0).prim_ids()[0];
  moved[id].x += 0.5f;
  live.update(moved, [](double) { return rt::TileUpdate::kRebuild; });

  // The snapshot still holds the pre-move position; the live index holds
  // the new one.
  EXPECT_EQ(snapshot.tile(0).positions()[0], points[id]);
  EXPECT_EQ(live.tile(0).positions()[0], moved[id]);
  // Tiles 1.. are still literally the same objects.
  for (std::uint32_t t = 1; t < live.tile_count(); ++t) {
    EXPECT_EQ(&live.tile(t), &snapshot.tile(t));
  }
  snapshot.validate();
  live.validate();
}

// --- Tiled pipeline parity ---------------------------------------------------

/// Range + KNN parity between a tiled and a monolithic NeighborSearch
/// over the same cloud/queries. Range K is set above every true count so
/// the result set is unique; KNN rows must be identical. `tiled_report`
/// receives the sum of the tiled side's two reports (the KNN search
/// reuses the accel, and the lazy tiles, the range search built).
void expect_tiled_parity(const std::vector<Vec3>& points, const std::vector<Vec3>& queries,
                         float radius, const TileOptions& tiling,
                         const std::string& label,
                         NeighborSearch::Report* tiled_report = nullptr) {
  NeighborSearch mono;
  mono.set_points(points);
  NeighborSearch tiled;
  tiled.set_tiling(tiling);
  tiled.set_points(points);

  SearchParams range;
  range.mode = SearchMode::kRange;
  range.radius = radius;
  range.k = static_cast<std::uint32_t>(points.size());
  const NeighborResult range_expected = mono.search(queries, range, nullptr);
  NeighborSearch::Report report;
  const NeighborResult range_got = tiled.search(queries, range, &report);
  rtnn::testing::expect_same_neighbor_sets(range_got, range_expected, label + " range");
  EXPECT_GT(report.tile_count, 1u) << label << ": tiling must actually engage";

  SearchParams knn;
  knn.mode = SearchMode::kKnn;
  knn.radius = radius;
  knn.k = 8;
  const NeighborResult knn_expected = mono.search(queries, knn, nullptr);
  NeighborSearch::Report knn_report;
  const NeighborResult knn_got = tiled.search(queries, knn, &knn_report);
  rtnn::testing::expect_knn_identical(knn_got, knn_expected, label + " knn");
  report += knn_report;
  if (tiled_report) *tiled_report = report;
}

TEST(TiledSearch, MatchesMonolithicAcrossCloudKinds) {
  for (const CloudKind kind :
       {CloudKind::kUniform, CloudKind::kLidar, CloudKind::kSurface, CloudKind::kNBody}) {
    const std::vector<Vec3> points = rtnn::testing::make_cloud(kind, 3000, 23);
    const std::vector<Vec3> queries = rtnn::testing::make_cloud(kind, 400, 29);
    expect_tiled_parity(points, queries, rtnn::testing::typical_radius(kind),
                        small_tiles(/*threshold=*/256),
                        "kind=" + std::to_string(static_cast<int>(kind)));
  }
}

TEST(TiledSearch, LazyAndEagerAgree) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kLidar, 4000, 31);
  const std::vector<Vec3> queries = rtnn::testing::make_cloud(CloudKind::kLidar, 300, 37);
  for (const bool lazy : {false, true}) {
    TileOptions tiling = small_tiles(/*threshold=*/256);
    tiling.lazy_build = lazy;
    NeighborSearch::Report report;
    expect_tiled_parity(points, queries, rtnn::testing::typical_radius(CloudKind::kLidar),
                        tiling, lazy ? "lazy" : "eager", &report);
    if (lazy) {
      EXPECT_GT(report.tile_lazy_builds, 0u)
          << "lazy tiling must account its build-on-first-route work";
    }
  }
}

TEST(TiledSearch, MaxTilesCapsAndZeroMeansUnbounded) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 41);
  const std::vector<Vec3> queries = rtnn::testing::make_cloud(CloudKind::kUniform, 100, 43);
  const float radius = rtnn::testing::typical_radius(CloudKind::kUniform);

  TileOptions capped = small_tiles(/*threshold=*/100);
  capped.max_tiles = 4;
  NeighborSearch::Report report;
  expect_tiled_parity(points, queries, radius, capped, "capped", &report);
  EXPECT_EQ(report.tile_count, 4u);

  TileOptions unbounded = small_tiles(/*threshold=*/100);
  unbounded.max_tiles = 0;  // the codebase-wide "0 = no cap" contract
  expect_tiled_parity(points, queries, radius, unbounded, "unbounded", &report);
  EXPECT_EQ(report.tile_count, 20u) << "ceil(2000/100) tiles when uncapped";
}

// --- Dynamic sequences -------------------------------------------------------

TEST(TiledDynamic, DriftFramesMatchMonolithic) {
  // Drift motion (point identity preserved, small displacement): the
  // refit-friendly regime. Both engines run the update_points()
  // lifecycle; the tiled one must answer every frame identically while
  // doing per-tile update work.
  const std::vector<Vec3> initial = rtnn::testing::make_cloud(CloudKind::kNBody, 3000, 47);
  data::DriftParams drift;
  drift.velocity = 0.02f;
  data::DriftMotion motion(initial, drift);

  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = rtnn::testing::typical_radius(CloudKind::kNBody);
  // K above every possible count: which K survive a truncation is
  // backend-defined, so only the untruncated set is comparable.
  params.k = static_cast<std::uint32_t>(initial.size());

  NeighborSearch mono;
  mono.set_points(initial);
  NeighborSearch tiled;
  TileOptions tiling = small_tiles(/*threshold=*/256);
  tiling.lazy_build = false;  // every touched tile is built, so the
                              // refit+rebuild == touched identity holds
  tiled.set_tiling(tiling);
  tiled.set_points(initial);

  NeighborSearch::Report total;
  for (int frame = 0; frame < 5; ++frame) {
    const std::vector<Vec3>& points = frame == 0 ? initial : motion.step();
    if (frame > 0) {
      mono.update_points(points);
      tiled.update_points(points);
    }
    const std::vector<Vec3> queries(points.begin(), points.begin() + 200);
    const NeighborResult expected = mono.search(queries, params, nullptr);
    NeighborSearch::Report report;
    const NeighborResult got = tiled.search(queries, params, &report);
    rtnn::testing::expect_same_neighbor_sets(got, expected,
                                             "drift frame " + std::to_string(frame));
    total += report;
  }
  // Drift moves every point, so every frame touches every tile.
  EXPECT_GT(total.tiles_touched, 0u);
  EXPECT_EQ(total.tile_refits + total.tile_rebuilds, total.tiles_touched)
      << "every touched built tile is refit or rebuilt";
  EXPECT_EQ(total.accel_refits + total.accel_rebuilds, 0u)
      << "tiled updates must not count as monolithic refits/rebuilds";
}

TEST(TiledDynamic, LidarSweepFramesMatchMonolithic) {
  // Sweep frames share no per-point correspondence: the regime where
  // refit quality collapses and the per-tile policy must start choosing
  // rebuilds. Parity must hold regardless of what the policy picks.
  data::LidarParams base;
  base.target_points = 4000;
  base.seed = 53;
  data::LidarSweep sweep(base, /*frame_advance_m=*/2.0f);

  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = 1.2f;
  // Untruncated set (see the drift test).
  params.k = static_cast<std::uint32_t>(base.target_points);

  NeighborSearch mono;
  NeighborSearch tiled;
  tiled.set_tiling(small_tiles(/*threshold=*/256));

  NeighborSearch::Report total;
  for (std::uint32_t frame = 0; frame < 4; ++frame) {
    const data::PointCloud points = sweep.frame(frame);
    if (frame == 0) {
      mono.set_points(points);
      tiled.set_points(points);
    } else {
      mono.update_points(points);
      tiled.update_points(points);
    }
    const std::vector<Vec3> queries(points.begin(), points.begin() + 200);
    const NeighborResult expected = mono.search(queries, params, nullptr);
    NeighborSearch::Report report;
    const NeighborResult got = tiled.search(queries, params, &report);
    rtnn::testing::expect_same_neighbor_sets(got, expected,
                                             "sweep frame " + std::to_string(frame));
    total += report;
  }
  EXPECT_GT(total.tiles_touched, 0u);
}

TEST(TiledDynamic, LocalizedMotionTouchesFewTiles) {
  // The locality headline: motion confined to one spatial region must
  // leave most tiles untouched (the monolithic path refits everything).
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 4000, 59);
  NeighborSearch tiled;
  tiled.set_tiling(small_tiles(/*threshold=*/250));
  tiled.set_points(points);

  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = rtnn::testing::typical_radius(CloudKind::kUniform);
  params.k = 64;
  const std::vector<Vec3> queries(points.begin(), points.begin() + 100);
  tiled.search(queries, params, nullptr);  // frame 0: build

  // Move only the points inside a small ball around one anchor; Morton
  // tiles are spatially compact, so few of them can intersect it.
  std::vector<Vec3> moved = points;
  const Vec3 anchor = points[0];
  for (Vec3& p : moved) {
    if (distance2(p, anchor) < 0.01f) p.z += 0.002f;
  }
  tiled.update_points(moved);

  NeighborSearch::Report report;
  tiled.search(queries, params, &report);
  ASSERT_GT(report.tile_count, 4u);
  EXPECT_GE(report.tiles_touched, 1u);
  EXPECT_LT(report.tiles_touched, report.tile_count / 2)
      << "local motion must not touch most of the index";
}

// --- Service composition -----------------------------------------------------

TEST(TiledService, TiledCloudServesIdenticalResults) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 61);
  const std::vector<Vec3> queries = rtnn::testing::make_cloud(CloudKind::kUniform, 128, 67);
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = rtnn::testing::typical_radius(CloudKind::kUniform);
  params.k = static_cast<std::uint32_t>(points.size());

  service::SearchService svc{service::ServiceConfig{}};
  service::CloudConfig plain;
  service::CloudConfig tiled;
  tiled.tile_threshold = 256;
  tiled.lazy_tile_build = true;
  const auto plain_handle = svc.register_cloud("plain", points, plain);
  const auto tiled_handle = svc.register_cloud("tiled", points, tiled);

  const NeighborResult expected = svc.query(plain_handle, queries, params).result;
  const NeighborResult got = svc.query(tiled_handle, queries, params).result;
  rtnn::testing::expect_same_neighbor_sets(got, expected, "service tiled");
}

}  // namespace
}  // namespace rtnn
