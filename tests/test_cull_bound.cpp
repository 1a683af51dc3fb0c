// The KNN cull bound (KnnPipeline::cull_shrink, rt::CullingProgram):
// launching with the bound must leave every KNN row byte-identical to the
// unbounded launch while cutting traversal work, on every walk the bound
// reaches (the monolithic and the tiled wide walk) and under the geometries
// that break spatial code: the differential harness's degenerate trials,
// duplicate-heavy clouds, exact-tie lattices, NaN/Inf query rows, and a
// dense cloud far from the origin. The walks that ignore the bound
// (binary, warp-lockstep) must keep their counters bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/rng.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/rtnn.hpp"
#include "rtnn/tile_plan.hpp"
#include "degenerate_trials.hpp"
#include "test_util.hpp"

namespace rtnn {
namespace {

using testing::expect_knn_identical;
using testing::Trial;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::string to_string(bool tiled) { return tiled ? "tiled" : "monolithic"; }

/// A cloud of cubes of `width`: monolithic, or `tiles` Morton tiles from
/// the planner the search pipeline uses.
ox::Accel build_accel(const std::vector<Vec3>& points, float width, bool tiled,
                      std::uint32_t tiles = 8) {
  const ox::Context ctx;
  if (tiled) return ctx.build_tiled_accel(points, width, plan_tiles(points, tiles));
  std::vector<Aabb> boxes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) boxes[i] = Aabb::cube(points[i], width);
  return ctx.build_accel(boxes);
}

struct KnnRun {
  NeighborResult rows;
  rt::LaunchStats stats;
};

/// One KNN launch over every query. `bound_width` 0 is the unbounded
/// (five-argument) pipeline; otherwise the accel's build width.
KnnRun run_knn(const ox::Accel& accel, const Trial& trial, std::uint32_t k,
               float bound_width, const ox::LaunchOptions& options = {}) {
  std::vector<std::uint32_t> ids(trial.queries.size());
  std::iota(ids.begin(), ids.end(), 0u);
  FlatKnnHeaps heaps(trial.queries.size(), k);
  pipelines::KnnPipeline pipeline(trial.points, trial.queries, ids, trial.radius, heaps,
                                  bound_width);
  KnnRun run;
  run.stats = ox::launch(accel, pipeline, static_cast<std::uint32_t>(ids.size()), options);
  run.rows = heaps.extract();
  return run;
}

/// Query rows no finite geometry answers: NaN and infinite coordinates.
void add_hostile_rows(std::vector<Vec3>& queries) {
  queries.push_back({kNan, 0.5f, 0.5f});
  queries.push_back({kInf, kNan, 0.5f});
  queries.push_back({0.5f, 0.5f, kNan});
  queries.push_back({kInf, 0.5f, 0.5f});
  queries.push_back({-kInf, -kInf, -kInf});
}

/// Self-queries plus jittered ones around the cloud's points.
std::vector<Vec3> queries_near(const std::vector<Vec3>& points, float jitter,
                               std::size_t count, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Vec3> queries;
  for (std::size_t i = 0; i < count; ++i) {
    const Vec3& p = points[rng.next_bounded(static_cast<std::uint32_t>(points.size()))];
    if (i % 2 == 0) {
      queries.push_back(p);
    } else {
      queries.push_back({p.x + jitter * (rng.next_float() - 0.5f),
                         p.y + jitter * (rng.next_float() - 0.5f),
                         p.z + jitter * (rng.next_float() - 0.5f)});
    }
  }
  return queries;
}

/// Uniform in [origin, origin + 1]^3: ~56 points per r-ball at r = 0.15
/// and an 8th-neighbor distance near 0.08, so a K = 8 heap fills well
/// inside the 2r cube and the bound fires — at the origin, and at |q| ≈
/// 1e5 where the rounding margin is ~0.05.
Trial dense_trial(Vec3 origin, const std::string& name) {
  Trial trial{.generator = name, .seed = 7};
  Pcg32 rng(trial.seed);
  for (int i = 0; i < 4000; ++i) {
    trial.points.push_back({origin.x + rng.next_float(), origin.y + rng.next_float(),
                            origin.z + rng.next_float()});
  }
  trial.radius = 0.15f;
  trial.queries = queries_near(trial.points, trial.radius, 400, 11);
  return trial;
}

/// Few sites, every point a copy of one: heaps fill with zero distances.
Trial duplicate_trial() {
  Trial trial{.generator = "duplicates", .seed = 5};
  Pcg32 rng(trial.seed);
  std::vector<Vec3> sites;
  for (int s = 0; s < 60; ++s) {
    sites.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  for (int i = 0; i < 1200; ++i) {
    trial.points.push_back(sites[rng.next_bounded(static_cast<std::uint32_t>(sites.size()))]);
  }
  trial.radius = 0.1f;
  trial.queries = queries_near(trial.points, trial.radius, 200, 13);
  return trial;
}

/// A 10^3 lattice at spacing 1/8 (exact in float, so equal distances are
/// bitwise equal): a lattice-point query has twelve exact ties at its 8th
/// distance, and a tie with a smaller id still displaces the heap's root,
/// so the bound must not skip a point at exactly the worst distance.
Trial lattice_trial() {
  Trial trial{.generator = "lattice", .seed = 0};
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      for (int z = 0; z < 10; ++z) {
        trial.points.push_back({0.125f * static_cast<float>(x),
                                0.125f * static_cast<float>(y),
                                0.125f * static_cast<float>(z)});
      }
    }
  }
  trial.radius = 0.3f;
  trial.queries = queries_near(trial.points, 0.125f, 200, 17);
  for (int i = 0; i < 40; ++i) {
    // Cell centers and edge midpoints: more exact ties.
    const float c = 0.0625f + 0.125f * static_cast<float>(i % 9);
    trial.queries.push_back({c, 0.5f, i % 2 == 0 ? 0.375f : 0.4375f});
  }
  return trial;
}

/// Every differential generator plus the cull-specific clouds, each with
/// NaN/Inf query rows appended.
std::vector<Trial> parity_trials() {
  std::vector<Trial> trials = testing::all_trials();
  trials.push_back(duplicate_trial());
  trials.push_back(lattice_trial());
  trials.push_back(dense_trial({0.0f, 0.0f, 0.0f}, "dense"));
  trials.push_back(dense_trial({1.0e5f, -2.0e4f, 3.0e4f}, "dense-offset-1e5"));
  for (Trial& trial : trials) add_hostile_rows(trial.queries);
  return trials;
}

TEST(CullBound, KnnRowsByteIdenticalWithAndWithoutBound) {
  // Widths: the production 2r; a wider 3r (h > r, so a full heap always
  // culls); a partition-like 1.2r (h barely above r, often no bound).
  for (const Trial& trial : parity_trials()) {
    for (const float scale : {2.0f, 3.0f, 1.2f}) {
      const float width = scale * trial.radius;
      for (const bool tiled : {false, true}) {
        const std::string label = trial.generator + " seed=" + std::to_string(trial.seed) +
                                  " width=" + std::to_string(scale) + "r " +
                                  to_string(tiled);
        SCOPED_TRACE(label);
        const ox::Accel accel = build_accel(trial.points, width, tiled);
        for (const std::uint32_t k : {1u, 8u}) {
          const KnnRun unbounded = run_knn(accel, trial, k, 0.0f);
          const KnnRun bounded = run_knn(accel, trial, k, width);
          expect_knn_identical(bounded.rows, unbounded.rows, label + " k=" + std::to_string(k));
          EXPECT_LE(bounded.stats.is_calls, unbounded.stats.is_calls) << label;
          EXPECT_LE(bounded.stats.node_visits, unbounded.stats.node_visits) << label;
        }
      }
    }
  }
}

TEST(CullBound, OffsetDenseCloudStillCulls) {
  // The margin is a few ulps of the coordinate magnitude: at |q| ≈ 1e5
  // (ulp 2^-7) it is ~0.05, well under h − (K-th distance) here, so the
  // bound must still cut work — monolithic and tiled.
  const Trial trial = dense_trial({1.0e5f, -2.0e4f, 3.0e4f}, "dense-offset-1e5");
  const float width = 2.0f * trial.radius;
  for (const bool tiled : {false, true}) {
    SCOPED_TRACE(to_string(tiled));
    const ox::Accel accel = build_accel(trial.points, width, tiled);
    const KnnRun unbounded = run_knn(accel, trial, 8, 0.0f);
    const KnnRun bounded = run_knn(accel, trial, 8, width);
    expect_knn_identical(bounded.rows, unbounded.rows, to_string(tiled));
    EXPECT_LT(bounded.stats.is_calls, unbounded.stats.is_calls);
    EXPECT_LT(bounded.stats.node_visits, unbounded.stats.node_visits);
  }
}

TEST(CullBound, BoundCutsIsCallsMonolithicAndTiled) {
  // The mechanism pin: ox::launch must forward the pipeline's bound
  // (ProgramAdapter) and the two-level walk must forward it into every
  // tile's BLAS walk (TileProgram). With a single tile the top level
  // never culls a query inside the cloud (the tile box shrunk by δ < h
  // still covers the points' own bounds), so the cut must come from the
  // BLAS walk; eight tiles add top-level culling on top.
  const Trial trial = dense_trial({0.0f, 0.0f, 0.0f}, "dense");
  const float width = 2.0f * trial.radius;
  for (const bool tiled : {false, true}) {
    for (const std::uint32_t tiles : {1u, 8u}) {
      if (!tiled && tiles > 1) continue;
      SCOPED_TRACE(to_string(tiled) + " tiles=" + std::to_string(tiles));
      const ox::Accel accel = build_accel(trial.points, width, tiled, tiles);
      const KnnRun unbounded = run_knn(accel, trial, 8, 0.0f);
      const KnnRun bounded = run_knn(accel, trial, 8, width);
      EXPECT_LT(bounded.stats.is_calls, unbounded.stats.is_calls);
      EXPECT_LT(bounded.stats.node_visits, unbounded.stats.node_visits);
      EXPECT_EQ(bounded.stats.terminated_rays, 0u);
    }
  }
}

TEST(CullBound, SearchPassesTheBuiltWidth) {
  // End to end: a KNN search (no optimizations: one launch at the base
  // width) makes exactly the bounded launch's IS calls, monolithic and
  // tiled — LaunchStage hands the pipeline the accel's width.
  const Trial trial = dense_trial({0.0f, 0.0f, 0.0f}, "dense");
  const float width = 2.0f * trial.radius;
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = trial.radius;
  params.k = 8;
  params.opts = OptimizationFlags::none();
  for (const bool tiled : {false, true}) {
    SCOPED_TRACE(tiled ? "tiled" : "monolithic");
    NeighborSearch search;
    if (tiled) {
      TileOptions tiling;
      tiling.tile_threshold = 100;
      tiling.max_tiles = 8;
      search.set_tiling(tiling);
    }
    search.set_points(trial.points);
    NeighborSearch::Report report;
    const NeighborResult rows = search.search(trial.queries, params, &report);

    const ox::Accel accel = build_accel(trial.points, width, tiled);
    const KnnRun bounded = run_knn(accel, trial, 8, width);
    const KnnRun unbounded = run_knn(accel, trial, 8, 0.0f);
    EXPECT_EQ(report.stats.is_calls, bounded.stats.is_calls);
    EXPECT_LT(report.stats.is_calls, unbounded.stats.is_calls);
    expect_knn_identical(rows, unbounded.rows, "search vs unbounded launch");
  }
}

void expect_stats_identical(const rt::LaunchStats& a, const rt::LaunchStats& b) {
  EXPECT_EQ(a.node_visits, b.node_visits);
  EXPECT_EQ(a.aabb_tests, b.aabb_tests);
  EXPECT_EQ(a.is_calls, b.is_calls);
  EXPECT_EQ(a.terminated_rays, b.terminated_rays);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.warp_iterations, b.warp_iterations);
  EXPECT_EQ(a.warp_substeps, b.warp_substeps);
  EXPECT_EQ(a.active_lane_slots, b.active_lane_slots);
}

TEST(CullBound, BinaryAndLockstepWalksIgnoreTheBound) {
  // The paper-characterization walks (Figures 5–8) never cull: a width
  // changes neither their counters nor their rows.
  const Trial trial = dense_trial({0.0f, 0.0f, 0.0f}, "dense");
  const float width = 2.0f * trial.radius;
  const ox::Accel accel = build_accel(trial.points, width, /*tiled=*/false);
  ox::LaunchOptions lockstep;
  lockstep.model = ox::ExecutionModel::kWarpLockstep;
  ox::LaunchOptions binary;
  binary.use_wide_bvh = false;
  for (const ox::LaunchOptions& options : {lockstep, binary}) {
    SCOPED_TRACE(options.use_wide_bvh ? "warp-lockstep" : "binary");
    const KnnRun unbounded = run_knn(accel, trial, 8, 0.0f, options);
    const KnnRun bounded = run_knn(accel, trial, 8, width, options);
    expect_stats_identical(bounded.stats, unbounded.stats);
    expect_knn_identical(bounded.rows, unbounded.rows, "ignored bound");
  }
}

TEST(CullBound, PipelineBoundContract) {
  const std::vector<Vec3> points = {{0.0f, 0.0f, 0.0f}, {0.1f, 0.0f, 0.0f}};
  const std::vector<Vec3> queries = {{0.0f, 0.0f, 0.0f}, {kNan, 0.0f, 0.0f}};
  const std::vector<std::uint32_t> ids = {0, 1};
  FlatKnnHeaps heaps(queries.size(), 2);
  const pipelines::KnnPipeline unbounded(points, queries, ids, 1.0f, heaps);
  pipelines::KnnPipeline bounded(points, queries, ids, 1.0f, heaps, 2.0f);
  // An unfilled heap bounds nothing.
  EXPECT_LE(bounded.cull_shrink(0), 0.0f);
  bounded.intersection(0, 0);
  bounded.intersection(0, 1);
  bounded.intersection(1, 0);
  bounded.intersection(1, 1);
  // Full heap, K-th distance 0.1, h = 1: δ just under 0.9.
  EXPECT_GT(bounded.cull_shrink(0), 0.89f);
  EXPECT_LT(bounded.cull_shrink(0), 0.9f);
  // Without a width, and for a NaN query (its heap never fills), no bound.
  EXPECT_LE(unbounded.cull_shrink(0), 0.0f);
  EXPECT_FALSE(bounded.cull_shrink(1) > 0.0f);
}

TEST(CullBound, ShrunkBoxTestMatchesScalarOnEveryNodeSlot) {
  // This build's 8-slot shrunk test (AVX2, or the scalar fallback in
  // RTNN_ENABLE_AVX2=OFF builds) must agree with shrunk_box_contains on
  // every dequantized node slot, for bounds from tiny to box-sized.
  const Trial trial = dense_trial({0.0f, 0.0f, 0.0f}, "dense");
  const ox::Accel accel = build_accel(trial.points, 2.0f * trial.radius, false);
  const auto nodes = accel.wide_bvh().compressed_nodes();
  Pcg32 rng(23);
  for (int i = 0; i < 4000; ++i) {
    const rt::CompressedWideNode& node =
        nodes[rng.next_bounded(static_cast<std::uint32_t>(nodes.size()))];
    const Vec3 q{1.2f * rng.next_float() - 0.1f, 1.2f * rng.next_float() - 0.1f,
                 1.2f * rng.next_float() - 0.1f};
    const float delta = 0.2f * rng.next_float();
    const std::uint32_t mask = rt::detail::node_shrunk_hits(node, q, delta);
    for (std::uint32_t s = 0; s < node.count; ++s) {
      EXPECT_EQ((mask >> s) & 1u,
                rt::detail::shrunk_box_contains(rt::dequantize_slot(node, s), q, delta) ? 1u
                                                                                        : 0u);
    }
  }
}

}  // namespace
}  // namespace rtnn
