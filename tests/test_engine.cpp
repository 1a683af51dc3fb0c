// Engine-layer tests: registry construction, backend parity against the
// exhaustive reference, AutoBackend dispatch, and stage-pipeline
// composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "core/rng.hpp"
#include "engine/engine.hpp"
#include "rtnn/stages.hpp"
#include "test_util.hpp"

namespace rtnn::engine {
namespace {

using rtnn::testing::CloudKind;
using rtnn::testing::expect_knn_identical;

constexpr const char* kBuiltins[] = {"auto",    "brute_force", "fastrnn",
                                     "grid",    "octree",      "rtnn"};

TEST(BackendRegistry, ConstructsEveryBuiltin) {
  auto& registry = BackendRegistry::instance();
  const std::vector<std::string> names = registry.names();
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
    const std::unique_ptr<SearchBackend> backend = registry.create(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    const BackendCaps caps = backend->caps();
    EXPECT_TRUE(caps.range || caps.knn) << name << " supports no mode at all";
  }
}

TEST(BackendRegistry, UnknownNameThrows) {
  EXPECT_THROW(make_backend("no-such-backend"), Error);
  try {
    make_backend("no-such-backend");
    FAIL() << "expected rtnn::Error";
  } catch (const Error& e) {
    // The message must name the offender so CLI users can act on it.
    EXPECT_NE(std::string(e.what()).find("no-such-backend"), std::string::npos);
  }
  // A failed lookup must not have registered anything as a side effect.
  EXPECT_FALSE(BackendRegistry::instance().contains("no-such-backend"));
}

TEST(BackendRegistry, CustomFactoriesRegister) {
  auto& registry = BackendRegistry::instance();
  registry.add("custom_brute", [] { return std::make_unique<BruteForceBackend>(); });
  const auto backend = registry.create("custom_brute");
  EXPECT_EQ(backend->name(), "brute_force");
  EXPECT_TRUE(registry.contains("custom_brute"));
}

TEST(BackendRegistry, DuplicateRegistrationReplacesFactory) {
  auto& registry = BackendRegistry::instance();
  registry.add("dup_backend", [] { return std::make_unique<BruteForceBackend>(); });
  ASSERT_EQ(registry.create("dup_backend")->name(), "brute_force");
  // Re-registering the same name replaces the factory (documented shadowing
  // behavior) instead of throwing or appending a second entry.
  registry.add("dup_backend", [] { return std::make_unique<OctreeBackend>(); });
  EXPECT_EQ(registry.create("dup_backend")->name(), "octree");
  const std::vector<std::string> names = registry.names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "dup_backend"), 1);
}

TEST(BackendCapsGating, UnsupportedModeThrows) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 200, 1);
  SearchParams params;
  params.radius = 0.1f;
  params.k = 4;

  // FastRNN is KNN-only: a range request must fail the caps() gate up
  // front, not produce garbage.
  FastRnnBackend fastrnn;
  fastrnn.set_points(points);
  EXPECT_FALSE(fastrnn.caps().range);
  params.mode = SearchMode::kRange;
  EXPECT_THROW(fastrnn.search(points, params, nullptr), Error);
  params.mode = SearchMode::kKnn;
  EXPECT_NO_THROW(fastrnn.search(points, params, nullptr));
}

TEST(BackendCapsGating, ApproximateKnobsRejectedByExactBackends) {
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 200, 2);
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = 0.1f;
  params.k = 4;
  params.aabb_scale = 0.5f;  // approximate knob

  for (const char* name : {"brute_force", "grid", "octree"}) {
    const auto backend = make_backend(name);
    ASSERT_FALSE(backend->caps().approximate) << name;
    backend->set_points(points);
    EXPECT_THROW(backend->search(points, params, nullptr), Error) << name;
  }
  // rtnn honors the knob and must keep accepting it.
  const auto rtnn_backend = make_backend("rtnn");
  ASSERT_TRUE(rtnn_backend->caps().approximate);
  rtnn_backend->set_points(points);
  EXPECT_NO_THROW(rtnn_backend->search(points, params, nullptr));
}

TEST(BackendContract, CountsOnlyRunsStoreNoIndices) {
  // store_indices = false is honored by every registered backend in every
  // mode it supports: no index slots, and the counts of the indexed run.
  // Few queries over a small cloud, so "auto" dispatches to a baseline.
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 13);
  const std::span<const Vec3> queries(points.data(), 20);
  for (const std::string& name : BackendRegistry::instance().names()) {
    const auto backend = make_backend(name);
    backend->set_points(points);
    const BackendCaps caps = backend->caps();
    for (const SearchMode mode : {SearchMode::kRange, SearchMode::kKnn}) {
      if (!(mode == SearchMode::kRange ? caps.range : caps.knn)) continue;
      const std::string label = name + (mode == SearchMode::kRange ? "/range" : "/knn");
      SearchParams params;
      params.mode = mode;
      params.radius = 0.1f;
      params.k = 8;
      const NeighborResult indexed = backend->search(queries, params, nullptr);
      params.store_indices = false;
      const NeighborResult counts = backend->search(queries, params, nullptr);
      EXPECT_FALSE(counts.stores_indices()) << label;
      rtnn::testing::expect_counts_equal(counts, indexed, label);
    }
  }
}

TEST(BackendContract, NonFinitePointsThrowOnUpload) {
  // A NaN or infinite coordinate is refused at set_points() and
  // update_points() on every registered backend, with a typed
  // rtnn::Error, before any structure is built over it. Each upload is
  // followed by a search in every supported mode, so a backend that
  // accepted the point would have to answer over it.
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 13);
  const std::span<const Vec3> queries(points.data(), 20);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    std::vector<Vec3> poisoned = points;
    poisoned[17].x = bad;
    for (const std::string& name : BackendRegistry::instance().names()) {
      SCOPED_TRACE(name + " " + std::to_string(bad));
      const auto upload_and_search = [&](bool update) {
        const auto backend = make_backend(name);
        if (update) {
          backend->set_points(points);
          backend->update_points(poisoned);
        } else {
          backend->set_points(poisoned);
        }
        const BackendCaps caps = backend->caps();
        for (const SearchMode mode : {SearchMode::kRange, SearchMode::kKnn}) {
          if (!(mode == SearchMode::kRange ? caps.range : caps.knn)) continue;
          SearchParams params;
          params.mode = mode;
          params.radius = 0.1f;
          params.k = 8;
          (void)backend->search(queries, params, nullptr);
        }
      };
      EXPECT_THROW(upload_and_search(/*update=*/false), Error) << "set_points";
      EXPECT_THROW(upload_and_search(/*update=*/true), Error) << "update_points";
    }
  }
}

TEST(BackendContract, NonFiniteQueriesAnswerEmptyRows) {
  // The other half of the non-finite contract: a NaN or infinite query
  // coordinate is legal input and answers an empty row, on every
  // registered backend in every mode it supports.
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, 2000, 13);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<Vec3> queries = {{nan, 0.5f, 0.5f}, {inf, nan, 0.5f}, {0.5f, 0.5f, nan},
                                     {inf, 0.5f, 0.5f}, {-inf, -inf, -inf}};
  for (const std::string& name : BackendRegistry::instance().names()) {
    const auto backend = make_backend(name);
    backend->set_points(points);
    const BackendCaps caps = backend->caps();
    for (const SearchMode mode : {SearchMode::kRange, SearchMode::kKnn}) {
      if (!(mode == SearchMode::kRange ? caps.range : caps.knn)) continue;
      SearchParams params;
      params.mode = mode;
      params.radius = 0.1f;
      params.k = 8;
      const NeighborResult rows = backend->search(queries, params, nullptr);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(rows.count(q), 0u) << name << (mode == SearchMode::kRange ? "/range" : "/knn")
                                     << " row " << q;
      }
    }
  }
}

TEST(BackendLifecycle, UpdatePointsFallbackMatchesRebuild) {
  // Backends without a refit path must answer update_points() through the
  // set_points() fallback — callers never branch on caps().dynamic.
  const std::vector<Vec3> before = rtnn::testing::make_cloud(CloudKind::kUniform, 1200, 31);
  std::vector<Vec3> after = before;
  Pcg32 rng(77);
  for (Vec3& p : after) {
    p += Vec3{rng.uniform(-0.01f, 0.01f), rng.uniform(-0.01f, 0.01f),
              rng.uniform(-0.01f, 0.01f)};
  }
  const std::span<const Vec3> queries(after.data(), 300);

  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.08f;
  params.k = 8;

  BruteForceBackend reference;
  reference.set_points(after);
  const NeighborResult expected = reference.search(queries, params, nullptr);

  for (const char* name : kBuiltins) {
    if (std::string_view(name) == "brute_force") continue;
    const auto backend = make_backend(name);
    backend->set_points(before);
    (void)backend->search(queries, params, nullptr);  // build against the old frame
    backend->update_points(after);
    const NeighborResult got = backend->search(queries, params, nullptr);
    expect_knn_identical(got, expected, std::string(name) + "/update_points");
  }
}

TEST(BackendLifecycle, DynamicCapsDeclared) {
  // The refit-capable stacks advertise it; index-free or rebuild-only
  // backends must not.
  EXPECT_TRUE(make_backend("rtnn")->caps().dynamic);
  EXPECT_TRUE(make_backend("fastrnn")->caps().dynamic);
  EXPECT_TRUE(make_backend("auto")->caps().dynamic);
  EXPECT_FALSE(make_backend("brute_force")->caps().dynamic);
  EXPECT_FALSE(make_backend("grid")->caps().dynamic);
  EXPECT_FALSE(make_backend("octree")->caps().dynamic);
}

class BackendParity : public ::testing::TestWithParam<CloudKind> {};

TEST_P(BackendParity, AgreesWithBruteForceOnRandomClouds) {
  const CloudKind kind = GetParam();
  const std::vector<Vec3> points = rtnn::testing::make_cloud(kind, 1500, /*seed=*/7);

  // Queries: a mix of points themselves and jittered offsets.
  Pcg32 rng(99);
  std::vector<Vec3> queries;
  for (std::size_t i = 0; i < points.size(); i += 10) {
    queries.push_back(points[i]);
    queries.push_back(points[i] + Vec3{rng.uniform(-0.05f, 0.05f),
                                       rng.uniform(-0.05f, 0.05f),
                                       rng.uniform(-0.05f, 0.05f)});
  }

  SearchParams params;
  params.radius = rtnn::testing::typical_radius(kind);
  // K = N: range results can never be truncated, so parity is exact.
  params.k = static_cast<std::uint32_t>(points.size());

  BruteForceBackend reference;
  reference.set_points(points);

  for (const char* name : kBuiltins) {
    if (std::string_view(name) == "brute_force") continue;
    const auto backend = make_backend(name);
    backend->set_points(points);
    const BackendCaps caps = backend->caps();

    if (caps.range) {
      params.mode = SearchMode::kRange;
      const NeighborResult expected = reference.search(queries, params, nullptr);
      const NeighborResult got = backend->search(queries, params, nullptr);
      rtnn::testing::expect_same_neighbor_sets(
          got, expected, std::string(name) + "/range/" + to_string(kind));
    }

    if (caps.knn) {
      params.mode = SearchMode::kKnn;
      params.k = 16;
      const NeighborResult expected = reference.search(queries, params, nullptr);
      const NeighborResult got = backend->search(queries, params, nullptr);
      expect_knn_identical(got, expected, std::string(name) + "/knn/" + to_string(kind));
      params.k = static_cast<std::uint32_t>(points.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Clouds, BackendParity,
                         ::testing::Values(CloudKind::kUniform, CloudKind::kLidar,
                                           CloudKind::kNBody),
                         [](const auto& info) { return to_string(info.param); });

TEST(AutoBackend, PicksNonBruteForceOnLargeUniformCloud) {
  const std::vector<Vec3> points =
      rtnn::testing::make_cloud(CloudKind::kUniform, 100'000, /*seed=*/3);
  const std::span<const Vec3> queries(points.data(), 1000);

  AutoBackend backend;
  backend.set_points(points);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = 0.06f;
  params.k = 16;

  const NeighborResult result = backend.search(queries, params);
  EXPECT_FALSE(backend.last_choice().empty());
  EXPECT_NE(backend.last_choice(), "brute_force") << "100k points must not go exhaustive";
  rtnn::testing::expect_all_within_radius(points, queries, result, params.radius, "auto");

  // Whatever it picked must agree with the reference.
  BruteForceBackend reference;
  reference.set_points(points);
  const NeighborResult expected = reference.search(queries, params, nullptr);
  expect_knn_identical(result, expected, "auto/knn");
}

TEST(AutoBackend, PredictsBruteForceForTinyWorkloads) {
  const std::vector<Vec3> points =
      rtnn::testing::make_cloud(CloudKind::kUniform, 64, /*seed=*/5);
  AutoBackend backend;
  backend.set_points(points);
  SearchParams params;
  params.radius = 0.1f;
  const WorkloadStats stats = backend.measure(std::span<const Vec3>(points).subspan(0, 4),
                                              params);
  EXPECT_EQ(stats.n, 64u);
  EXPECT_EQ(stats.q, 4u);
  EXPECT_EQ(backend.predict(stats, params), "brute_force");
}

TEST(AutoBackend, DensityEstimateTracksUniformCloud) {
  const std::size_t n = 20'000;
  const std::vector<Vec3> points = rtnn::testing::make_cloud(CloudKind::kUniform, n, 11);
  AutoBackend backend;
  backend.set_points(points);
  SearchParams params;
  params.radius = 0.1f;
  const WorkloadStats stats =
      backend.measure(std::span<const Vec3>(points).subspan(0, 256), params);
  // Uniform unit cube: expect ~N points per unit volume, within a factor
  // accounting for boundary clipping of the sampled boxes.
  EXPECT_GT(stats.density, 0.25 * static_cast<double>(n));
  EXPECT_LT(stats.density, 1.5 * static_cast<double>(n));
}

TEST(StagePipeline, ComposedStagesMatchFlaggedSearch) {
  const std::vector<Vec3> points =
      rtnn::testing::make_cloud(CloudKind::kUniform, 4000, /*seed=*/21);
  const std::span<const Vec3> queries(points.data(), 800);

  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = 0.06f;
  params.k = 64;
  params.opts = OptimizationFlags::all();

  NeighborSearch search;
  search.set_points(points);
  const NeighborResult flagged = search.search(queries, params);

  // The same pipeline, assembled by hand from real stage objects.
  std::vector<std::unique_ptr<SearchStage>> stages;
  stages.push_back(std::make_unique<ScheduleStage>());
  stages.push_back(std::make_unique<PartitionStage>());
  stages.push_back(std::make_unique<BundleStage>(/*use_cost_model=*/true));
  stages.push_back(std::make_unique<LaunchStage>());
  const NeighborResult composed = search.run_stages(queries, params, stages);

  rtnn::testing::expect_same_neighbor_sets(composed, flagged, "stages/range");

  // A truncated pipeline (no partitioning) must equal the flag-driven
  // scheduling-only configuration.
  std::vector<std::unique_ptr<SearchStage>> sched_only;
  sched_only.push_back(std::make_unique<ScheduleStage>());
  sched_only.push_back(std::make_unique<LaunchStage>());
  const NeighborResult truncated = search.run_stages(queries, params, sched_only);
  params.opts = OptimizationFlags::scheduling_only();
  const NeighborResult sched_flagged = search.search(queries, params);
  rtnn::testing::expect_same_neighbor_sets(truncated, sched_flagged, "stages/sched-only");
}

}  // namespace
}  // namespace rtnn::engine
