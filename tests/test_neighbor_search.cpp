#include "rtnn/neighbor_search.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <numeric>
#include <tuple>

#include "baselines/brute_force.hpp"
#include "core/failpoint.hpp"
#include "core/rng.hpp"
#include "datasets/point_cloud.hpp"
#include "engine/backends.hpp"
#include "rtnn/stages.hpp"
#include "test_util.hpp"

namespace rtnn {
namespace {

using testing::CloudKind;

// (dataset, #points, radius scale, K, opts)
enum class Opts { kNone, kSched, kSchedPart, kAll };

std::string to_string(Opts o) {
  switch (o) {
    case Opts::kNone: return "noopt";
    case Opts::kSched: return "sched";
    case Opts::kSchedPart: return "schedpart";
    case Opts::kAll: return "all";
  }
  return "?";
}

OptimizationFlags flags_of(Opts o) {
  switch (o) {
    case Opts::kNone: return OptimizationFlags::none();
    case Opts::kSched: return OptimizationFlags::scheduling_only();
    case Opts::kSchedPart: return OptimizationFlags::no_bundling();
    case Opts::kAll: return OptimizationFlags::all();
  }
  return {};
}

using SearchCase = std::tuple<CloudKind, int, float, int, Opts>;

class RtnnCorrectness : public ::testing::TestWithParam<SearchCase> {
 protected:
  void SetUp() override {
    const auto [kind, n, r_scale, k, opts] = GetParam();
    points_ = testing::make_cloud(kind, static_cast<std::size_t>(n), 31);
    queries_ = data::jittered_queries(points_, 400, testing::typical_radius(kind) * 0.3f,
                                      37);
    // Hostile rows, which brute force answers with empty rows, so every
    // test below requires empty rows too. A NaN coordinate makes the short ray's
    // slab test pass every box on the query's axis line, so only the IS
    // shader's distance test can reject; an (inf, NaN) row misses every
    // box, so the scheduler Morton-keys it by its own coordinates (a
    // sanitizer build checks the NaN never reaches a float-to-integer
    // cast).
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    queries_.push_back({nan, 0.5f, 0.5f});
    queries_.push_back({inf, nan, 0.5f});
    radius_ = testing::typical_radius(kind) * r_scale;
    k_ = static_cast<std::uint32_t>(k);
    params_.radius = radius_;
    params_.k = k_;
    params_.opts = flags_of(opts);
    params_.max_grid_cells = 1 << 18;
    search_.set_points(points_);
  }

  std::vector<Vec3> points_;
  std::vector<Vec3> queries_;
  float radius_ = 0.0f;
  std::uint32_t k_ = 0;
  SearchParams params_;
  NeighborSearch search_;
};

TEST_P(RtnnCorrectness, KnnMatchesBruteForce) {
  // Every KNN partition launches at its megacell's √3 circumsphere
  // width, so partitioned KNN is exact on every optimization level.
  params_.mode = SearchMode::kKnn;
  const auto expected = baselines::brute_force_knn(points_, queries_, radius_, k_);
  const auto got = search_.search(queries_, params_);
  testing::expect_knn_identical(got, expected, "rtnn-knn");
}

TEST_P(RtnnCorrectness, RangeNeighborsValidAndCountsMatchWhenUnpartitioned) {
  params_.mode = SearchMode::kRange;
  const auto expected = baselines::brute_force_range(points_, queries_, radius_, k_);
  const auto got = search_.search(queries_, params_);
  testing::expect_all_within_radius(points_, queries_, got, radius_, "rtnn-range");
  if (!params_.opts.partitioning) {
    // Unpartitioned range search returns exactly min(K, |within r|).
    testing::expect_counts_equal(got, expected, "rtnn-range-counts");
  } else {
    // Partitioned range search returns "K neighbors from the megacell"
    // (section 5.1) — a valid bounded subset; count can only shrink.
    std::uint64_t got_total = 0, expected_total = 0;
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      EXPECT_LE(got.count(q), expected.count(q));
      got_total += got.count(q);
      expected_total += expected.count(q);
    }
    // And it must not collapse: ≥95% of the bounded neighbor mass.
    EXPECT_GE(got_total * 100, expected_total * 95);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtnnCorrectness,
    ::testing::Values(
        SearchCase{CloudKind::kUniform, 4000, 1.0f, 8, Opts::kNone},
        SearchCase{CloudKind::kUniform, 4000, 1.0f, 8, Opts::kSched},
        SearchCase{CloudKind::kUniform, 4000, 1.0f, 8, Opts::kSchedPart},
        SearchCase{CloudKind::kUniform, 4000, 1.0f, 8, Opts::kAll},
        SearchCase{CloudKind::kUniform, 1000, 2.0f, 32, Opts::kAll},
        SearchCase{CloudKind::kUniform, 500, 0.5f, 2, Opts::kAll},
        SearchCase{CloudKind::kLidar, 6000, 1.0f, 8, Opts::kAll},
        SearchCase{CloudKind::kLidar, 6000, 1.0f, 8, Opts::kNone},
        SearchCase{CloudKind::kSurface, 5000, 1.0f, 16, Opts::kAll},
        SearchCase{CloudKind::kSurface, 5000, 2.0f, 8, Opts::kSchedPart},
        SearchCase{CloudKind::kNBody, 5000, 1.0f, 8, Opts::kAll},
        SearchCase{CloudKind::kNBody, 5000, 0.5f, 4, Opts::kSched}),
    [](const ::testing::TestParamInfo<SearchCase>& info) {
      return testing::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 10)) + "_k" +
             std::to_string(std::get<3>(info.param)) + "_" +
             to_string(std::get<4>(info.param));
    });

TEST(RtnnApi, PreconditionsChecked) {
  NeighborSearch search;
  SearchParams params;
  const std::vector<Vec3> queries{{0, 0, 0}};
  EXPECT_THROW(search.search(queries, params), Error);  // no points
  const std::vector<Vec3> points{{0, 0, 0}};
  search.set_points(points);
  params.radius = -1.0f;
  EXPECT_THROW(search.search(queries, params), Error);
  params.radius = 1.0f;
  params.k = 0;
  EXPECT_THROW(search.search(queries, params), Error);
}

TEST(RtnnApi, ReportPhasesArePopulated) {
  const auto points = testing::make_cloud(CloudKind::kUniform, 5000, 3);
  const auto queries = data::jittered_queries(points, 500, 0.01f, 4);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 8;
  NeighborSearch::Report report;
  NeighborSearch search;
  search.set_points(points);
  search.search(queries, params, &report);
  EXPECT_GT(report.time.bvh, 0.0);
  EXPECT_GT(report.time.search, 0.0);
  // Scheduling sorts the queries by their own positions: no first-hit
  // launch runs, so the paper's FS phase reads 0.
  EXPECT_EQ(report.time.first_search, 0.0);
  EXPECT_EQ(report.first_hit_stats.rays, 0u);
  EXPECT_GE(report.num_partitions, 1u);
  EXPECT_GE(report.num_bundles, 1u);
  EXPECT_LE(report.num_bundles, report.num_partitions);
  EXPECT_GT(report.stats.rays, 0u);
  EXPECT_GT(report.stats.is_calls, 0u);
}

TEST(RtnnApi, CountOnlyModeMatchesCounts) {
  const auto points = testing::make_cloud(CloudKind::kUniform, 3000, 5);
  const auto queries = data::jittered_queries(points, 200, 0.01f, 6);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 8;
  NeighborSearch search;
  search.set_points(points);
  const auto with_indices = search.search(queries, params);
  params.store_indices = false;
  const auto counts_only = search.search(queries, params);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(counts_only.count(q), with_indices.count(q));
  }
  EXPECT_THROW(counts_only.neighbors(0), Error);
}

TEST(RtnnApi, DeterministicCountsAcrossRuns) {
  const auto points = testing::make_cloud(CloudKind::kSurface, 4000, 7);
  const auto queries = data::jittered_queries(points, 300, 0.005f, 8);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.03f;
  params.k = 8;
  NeighborSearch search;
  search.set_points(points);
  const auto a = search.search(queries, params);
  const auto b = search.search(queries, params);
  testing::expect_counts_equal(a, b, "determinism");
}

TEST(RtnnApi, KnnRowsSurviveChunkLocalHeaps) {
  // More queries than one launch chunk: every chunk reuses the same
  // heap rows (indexed by launch index) and drains them into its queries'
  // result rows, whether a unit is one span or several partitions'. Rows
  // must be brute force's, in both modes of a partitioned search.
  const auto points = testing::make_cloud(CloudKind::kUniform, 4000, 21);
  const auto queries =
      data::jittered_queries(points, kLaunchChunkSize + 1500, 0.02f, 22);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.06f;
  params.k = 6;
  const auto expected =
      baselines::brute_force_knn(points, queries, params.radius, params.k);
  for (const OptimizationFlags& opts :
       {OptimizationFlags::scheduling_only(), OptimizationFlags::all()}) {
    params.opts = opts;
    NeighborSearch search;
    search.set_points(points);
    testing::expect_knn_identical(search.search(queries, params), expected,
                                  opts.partitioning ? "partitioned" : "one unit");
  }
}

TEST(RtnnApi, FreeFunctionWrapper) {
  const auto points = testing::make_cloud(CloudKind::kUniform, 1000, 9);
  const auto queries = data::jittered_queries(points, 100, 0.01f, 10);
  SearchParams params;
  params.radius = 0.1f;
  params.k = 4;
  const auto result = rtnn::search(points, queries, params);
  EXPECT_EQ(result.num_queries(), queries.size());
}

TEST(RtnnApi, FastRnnBaselineMatchesBruteForce) {
  const auto points = testing::make_cloud(CloudKind::kUniform, 3000, 11);
  const auto queries = data::jittered_queries(points, 200, 0.01f, 12);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 8;
  engine::FastRnnBackend fastrnn;
  fastrnn.set_points(points);
  const auto got = fastrnn.search(queries, params, nullptr);
  const auto expected =
      baselines::brute_force_knn(points, queries, params.radius, params.k);
  testing::expect_knn_identical(got, expected, "fastrnn");
}

TEST(RtnnApi, CachedGridFollowsAChangedCellCap) {
  // The megacell grid is cached across searches, but only under the cell
  // cap it was built with: a later call with another max_grid_cells must
  // partition exactly like a fresh instance would.
  const auto points = testing::make_cloud(CloudKind::kUniform, 20000, 17);
  std::vector<std::uint32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0u);
  SearchParams coarse;
  coarse.mode = SearchMode::kKnn;
  coarse.radius = 0.2f;
  coarse.k = 16;
  coarse.opts = OptimizationFlags::all();
  coarse.max_grid_cells = 4096;
  SearchParams fine = coarse;
  fine.max_grid_cells = std::uint64_t{1} << 21;

  NeighborSearch reused;
  reused.set_points(points);
  // The partition step caches a coarse grid.
  (void)reused.search(std::span<const Vec3>(points).first(2000), coarse);
  NeighborSearch fresh;
  fresh.set_points(points);
  for (const SearchParams* params : {&fine, &coarse}) {
    SCOPED_TRACE(params->max_grid_cells);
    const PartitionSet got = reused.partition(points, order, *params);
    const PartitionSet expected = fresh.partition(points, order, *params);
    EXPECT_EQ(got.cell_size, expected.cell_size);
    EXPECT_EQ(got.partitions.size(), expected.partitions.size());
  }
  EXPECT_LT(fresh.partition(points, order, fine).cell_size,
            fresh.partition(points, order, coarse).cell_size)
      << "the two caps must give different grids";
}

TEST(RtnnApi, UncalibratedModelStillProducesValidPlan) {
  // Bundling with the shipped default constants (no calibrate() run)
  // must produce a covering plan whose rows are exact: bundling only
  // widens launches.
  const auto points = testing::make_cloud(CloudKind::kNBody, 8000, 15);
  const auto queries = data::jittered_queries(points, 300, 0.05f, 16);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 1.0f;
  params.k = 8;
  params.opts = OptimizationFlags::all();
  NeighborSearch::Report report;
  NeighborSearch search;
  search.set_points(points);
  const auto got = search.search(queries, params, &report);
  const auto expected = baselines::brute_force_knn(points, queries, 1.0f, 8);
  testing::expect_knn_identical(got, expected, "default model");
}

TEST(RtnnApi, GridBuildIsChargedToOpt) {
  // The partition step times the megacell grid build into time.opt, not into
  // the call's unattributed remainder. A delay injected into the build
  // is a one-sided bound: time.opt can only exceed it.
  const auto points = testing::make_cloud(CloudKind::kUniform, 3000, 17);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 8;
  fail::FailConfig delay;
  delay.action = fail::Action::kDelay;
  delay.delay = std::chrono::milliseconds(50);
  fail::ScopedFailpoint build("rtnn.grid.build", delay);
  NeighborSearch search;
  search.set_points(points);
  NeighborSearch::Report report;
  (void)search.search(points, params, &report);
  EXPECT_EQ(build.fires(), 1u);
  EXPECT_GE(report.time.opt, 0.05);
  // A cached grid is not rebuilt, so nothing fires again.
  (void)search.search(points, params, &report);
  EXPECT_EQ(build.fires(), 1u);
}

/// One cloud of the seeded KNN sweep: 1–8 Gaussian blobs (σ 0.01–0.11)
/// and a uniform third in the unit cube, K 1–8, r 0.01–0.31. Drawn with
/// Pcg32 alone (normal() included), so every standard library generates
/// the same clouds.
struct BlobCloud {
  std::vector<Vec3> points;
  std::uint32_t k = 0;
  float radius = 0.0f;
};

BlobCloud blob_cloud(std::uint64_t c) {
  const Aabb unit{{0, 0, 0}, {1, 1, 1}};
  Pcg32 rng(1000 + c);
  const std::uint32_t n = 50 + rng.next_bounded(2000);
  const std::uint32_t blobs = 1 + rng.next_bounded(8);
  std::vector<Vec3> centers(blobs);
  std::vector<float> sigmas(blobs);
  for (Vec3& center : centers) center = rng.uniform_in_aabb(unit);
  for (float& sigma : sigmas) sigma = rng.uniform(0.01f, 0.11f);
  BlobCloud cloud;
  cloud.points.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.next_bounded(3) == 0) {
      cloud.points.push_back(rng.uniform_in_aabb(unit));
      continue;
    }
    const std::uint32_t b = rng.next_bounded(blobs);
    const float x = rng.normal();
    const float y = rng.normal();
    const float z = rng.normal();
    cloud.points.push_back(centers[b] + Vec3{x, y, z} * sigmas[b]);
  }
  cloud.k = 1 + rng.next_bounded(8);
  cloud.radius = rng.uniform(0.01f, 0.31f);
  return cloud;
}

NeighborResult default_knn(const BlobCloud& cloud, NeighborSearch::Report* report) {
  SearchParams params;  // default optimization flags: partitioned, bundled
  params.mode = SearchMode::kKnn;
  params.radius = cloud.radius;
  params.k = cloud.k;
  NeighborSearch search;
  search.set_points(cloud.points);
  return search.search(cloud.points, params, report);
}

TEST(RtnnKnnSweep, DefaultParamsAreExactOnBlobClouds) {
  // Self-query KNN on default params, every row against brute force. The
  // paper's equi-volume partition width missed a true neighbour in 12 of
  // these 200 clouds; a missed neighbour needs more than one bundle.
  for (std::uint64_t c = 0; c < 200; ++c) {
    const BlobCloud cloud = blob_cloud(c);
    const std::string label = "cloud " + std::to_string(c) + " (n=" +
                              std::to_string(cloud.points.size()) + ", K=" +
                              std::to_string(cloud.k) + ", r=" +
                              std::to_string(cloud.radius) + ")";
    SCOPED_TRACE(label);
    const NeighborResult expected =
        baselines::brute_force_knn(cloud.points, cloud.points, cloud.radius, cloud.k);
    testing::expect_knn_identical(default_knn(cloud, nullptr), expected, label);
  }
}

TEST(RtnnKnnSweep, MultiBundleCloudFindsEveryNeighbour) {
  // Cloud 57 (n = 359, K = 6, r = 0.2626): at the equi-volume width one
  // of its rows returned a farther point in place of a true neighbour.
  const BlobCloud cloud = blob_cloud(57);
  ASSERT_EQ(cloud.points.size(), 359u);
  ASSERT_EQ(cloud.k, 6u);
  NeighborSearch::Report report;
  const NeighborResult got = default_knn(cloud, &report);
  EXPECT_GT(report.num_bundles, 1u);
  testing::expect_knn_identical(
      got, baselines::brute_force_knn(cloud.points, cloud.points, cloud.radius, cloud.k),
      "cloud 57");
}

}  // namespace
}  // namespace rtnn
