// Property-based differential harness: randomized clouds — including the
// degenerate geometries spatial structures get wrong (coincident points,
// collinear and planar sets, extreme coordinate magnitudes) — run through
// every registered backend and checked against exhaustive search, for
// both KNN and range. Every trial logs its generator and seed so a
// failure reproduces from the test output alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "engine/engine.hpp"
#include "rtnn/batch_optimizer.hpp"
#include "service/service.hpp"
#include "degenerate_trials.hpp"
#include "test_util.hpp"

using namespace rtnn;
using namespace rtnn::testing;

namespace {

/// The largest true neighbor count of any query — the K at which a range
/// result set is unique and comparable across backends.
std::uint32_t max_range_count(engine::SearchBackend& reference,
                              const Trial& trial) {
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = trial.radius;
  params.k = static_cast<std::uint32_t>(trial.points.size());
  params.store_indices = false;
  const NeighborResult counts = reference.search(trial.queries, params, nullptr);
  std::uint32_t max_count = 0;
  for (std::size_t q = 0; q < counts.num_queries(); ++q) {
    max_count = std::max(max_count, counts.count(q));
  }
  return max_count;
}

}  // namespace

TEST(Differential, EveryBackendAgreesWithBruteForce) {
  const std::vector<std::string> backends = engine::BackendRegistry::instance().names();
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    // The reproduction line the satellite asks for: a failing run names
    // the exact generator/seed pair to rebuild.
    std::printf("[differential] generator=%s seed=%llu\n", trial.generator.c_str(),
                static_cast<unsigned long long>(trial.seed));

    auto reference = engine::make_backend("brute_force");
    reference->set_points(trial.points);

    // Range: K above every true count makes the result set unique.
    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = max_range_count(*reference, trial) + 2;
    const NeighborResult range_expected =
        reference->search(trial.queries, range, nullptr);

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;
    const NeighborResult knn_expected = reference->search(trial.queries, knn, nullptr);

    for (const std::string& name : backends) {
      if (name == "brute_force") continue;
      SCOPED_TRACE(name);
      auto backend = engine::make_backend(name);
      backend->set_points(trial.points);
      const engine::BackendCaps caps = backend->caps();
      if (caps.range) {
        const NeighborResult got = backend->search(trial.queries, range, nullptr);
        rtnn::testing::expect_same_neighbor_sets(got, range_expected,
                                                 label + " range " + name);
      }
      if (caps.knn) {
        const NeighborResult got = backend->search(trial.queries, knn, nullptr);
        rtnn::testing::expect_knn_identical(got, knn_expected, label + " knn " + name);
      }
    }
  }
}

TEST(Differential, TiledIndexMatchesMonolithic) {
  // Two-level (TLAS/BLAS) index exactness under the degenerate
  // geometries: zero-extent tiles (coincident), 1-D and 2-D embedded
  // sets, float-cancellation magnitudes, exact-tie lattices. The tiled
  // traversal must surface the identical range set and the identical KNN
  // rows as the monolithic index it decomposes.
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    std::printf("[differential] tiled generator=%s seed=%llu\n",
                trial.generator.c_str(),
                static_cast<unsigned long long>(trial.seed));

    NeighborSearch mono;
    mono.set_points(trial.points);
    NeighborSearch tiled;
    TileOptions tiling;
    tiling.tile_threshold = 48;  // 384-point trials split into 8 tiles
    tiled.set_tiling(tiling);
    tiled.set_points(trial.points);

    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = static_cast<std::uint32_t>(trial.points.size());
    const NeighborResult range_expected = mono.search(trial.queries, range, nullptr);
    NeighborSearch::Report report;
    const NeighborResult range_got = tiled.search(trial.queries, range, &report);
    rtnn::testing::expect_same_neighbor_sets(range_got, range_expected,
                                             label + " tiled range");
    EXPECT_GT(report.tile_count, 1u) << label << ": tiling must engage";

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;
    const NeighborResult knn_expected = mono.search(trial.queries, knn, nullptr);
    const NeighborResult knn_got = tiled.search(trial.queries, knn, nullptr);
    rtnn::testing::expect_knn_identical(knn_got, knn_expected, label + " tiled knn");
  }
}

TEST(Differential, BatchOptimizerOnVsOffIsExact) {
  // The serving optimizer's exactness claim, under the geometries that
  // stress it hardest: coincident sites (maximal dedup), degenerate
  // extents, float-cancellation magnitudes, and exact-tie lattices.
  // Overlapping request windows guarantee cross-request bitwise-coincident
  // rows on top of the generators' internal duplicates (half of
  // make_queries' rows are exact point copies). Range and KNN must come
  // back byte-identical, and KNN rows equal brute force's.
  for (const auto& make :
       {coincident_trial, collinear_trial, planar_trial, extreme_trial, lattice_trial}) {
    const Trial trial = make(0xbee5ULL);
    SCOPED_TRACE(trial.generator);
    std::printf("[differential] optimizer generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    const std::span<const Vec3> all(trial.queries);
    const std::vector<std::span<const Vec3>> windows{
        all.subspan(0, 64), all.subspan(32, 64), all};

    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = static_cast<std::uint32_t>(trial.points.size());  // no truncation
    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;

    NeighborSearch search;
    search.set_points(trial.points);
    auto reference = engine::make_backend("brute_force");
    reference->set_points(trial.points);
    for (const SearchParams& params : {range, knn}) {
      const std::string mode = params.mode == SearchMode::kRange ? "range" : "knn";
      SCOPED_TRACE(mode);

      std::vector<BatchRequest> requests;
      for (const auto& window : windows) requests.push_back({window, params});
      const BatchPlan plan = optimize_batch(requests);
      ASSERT_EQ(plan.bins.size(), 1u);
      const BatchBin& bin = plan.bins[0];
      ASSERT_GT(bin.deduped, 0u);  // the overlapping windows guarantee it
      const NeighborResult rep_result = search.search(bin.queries, bin.params);
      const std::vector<NeighborResult> on = bin.scatter(rep_result);

      for (std::size_t i = 0; i < windows.size(); ++i) {
        const std::string label =
            trial.generator + " " + mode + " request " + std::to_string(i);
        const NeighborResult off = search.search(windows[i], params);
        if (params.mode == SearchMode::kRange) {
          // Byte-identical: same counts, same neighbor ids in the same
          // order — the dedup guard only ever transfers between bitwise
          // equal rows, and per-row traversal order is query-independent.
          ASSERT_EQ(on[i].num_queries(), off.num_queries()) << label;
          for (std::size_t q = 0; q < off.num_queries(); ++q) {
            ASSERT_EQ(on[i].count(q), off.count(q)) << label << " query " << q;
            const auto got = on[i].neighbors(q);
            const auto want = off.neighbors(q);
            ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
                << label << " query " << q;
          }
        } else {
          rtnn::testing::expect_knn_identical(on[i], off, label);
          rtnn::testing::expect_knn_identical(
              off, reference->search(windows[i], params, nullptr), label + " vs brute force");
        }
      }
    }
  }
}

TEST(Differential, DegenerateCloudsThroughTheBatchedPath) {
  // A coalesced search scattered by split_batch_result sees the same
  // degenerate geometry the per-request path does (the service merges
  // arbitrary client queries).
  for (const auto& make : {coincident_trial, collinear_trial, extreme_trial, lattice_trial}) {
    const Trial trial = make(0x5eedULL);
    SCOPED_TRACE(trial.generator);
    std::printf("[differential] batched generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;

    auto reference = engine::make_backend("brute_force");
    reference->set_points(trial.points);
    const NeighborResult expected = reference->search(trial.queries, knn, nullptr);

    NeighborSearch search;
    search.set_points(trial.points);
    const std::size_t half = trial.queries.size() / 2;
    const std::vector<BatchSlice> slices{{0, half},
                                         {half, trial.queries.size() - half}};
    const std::vector<NeighborResult> parts =
        split_batch_result(search.search(trial.queries, knn), slices);
    const auto whole = split_batch_result(expected, slices);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const std::span<const Vec3> queries(trial.queries.data() + slices[i].first,
                                          slices[i].count);
      rtnn::testing::expect_knn_identical(parts[i], whole[i], "slice");
    }
  }
}

TEST(Differential, TiledServiceMatchesWholeOnEveryGenerator) {
  // The tiled-tenant exactness claim, end to end through the serving
  // path: every generator, the lattice and coincident clouds included,
  // runs as two tenants of one service — a whole-cloud tenant and a
  // 4-tile one — and the answers must agree exactly. Range uses a K past
  // every true count, so the result is a unique set; KNN rows must be
  // identical slot for slot. Coincident and collinear clouds give
  // zero-extent tiles and duplicates split across tile boundaries; the
  // lattice splits exact ties across them.
  service::ServiceConfig config;
  config.max_delay = std::chrono::microseconds(0);  // per-request dispatch
  service::SearchService service(config);

  service::CloudConfig tiled_config;
  tiled_config.tile_threshold = kPoints / 4;

  int tenant = 0;
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    std::printf("[differential] tiled-service generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    const std::string whole_name = "whole-" + std::to_string(tenant);
    const std::string tiled_name = "tiled-" + std::to_string(tenant);
    ++tenant;
    const service::CloudHandle whole = service.register_cloud(whole_name, trial.points);
    const service::CloudHandle tiled =
        service.register_cloud(tiled_name, trial.points, tiled_config);

    auto reference = engine::make_backend("brute_force");
    reference->set_points(trial.points);

    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = max_range_count(*reference, trial) + 2;
    const service::RequestOutcome tiled_range = service.query(tiled, trial.queries, range);
    EXPECT_EQ(tiled_range.report.tile_count, 4u) << label << ": tiling must engage";
    rtnn::testing::expect_same_neighbor_sets(
        tiled_range.result, service.query(whole, trial.queries, range).result,
        label + " range");

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;
    rtnn::testing::expect_knn_identical(service.query(tiled, trial.queries, knn).result,
                                        service.query(whole, trial.queries, knn).result,
                                        label + " knn");

    service.drop_cloud(whole_name);
    service.drop_cloud(tiled_name);
  }
}
