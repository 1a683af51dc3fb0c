// SearchService: snapshot lifecycle, request batching, the async
// submit/wait API, exact Report aggregation, and reader/writer
// concurrency (this suite carries the "service" ctest label the TSan CI
// job runs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.hpp"
#include "core/rng.hpp"
#include "datasets/motion.hpp"
#include "engine/engine.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

using namespace rtnn;
using namespace rtnn::service;
using rtnn::testing::CloudKind;
using rtnn::testing::make_cloud;
using rtnn::testing::typical_radius;

namespace {

constexpr std::size_t kCloudSize = 1500;
constexpr std::uint64_t kSeed = 99;

SearchParams knn_params(float radius, std::uint32_t k = 8) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = radius;
  params.k = k;
  params.opts = OptimizationFlags::none();
  return params;
}

/// Deterministic per-thread query set: a window of the cloud, jittered.
std::vector<Vec3> client_queries(const std::vector<Vec3>& cloud, std::size_t first,
                                 std::size_t count, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Vec3> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Vec3& base = cloud[(first + i) % cloud.size()];
    queries.push_back({base.x + 0.01f * (rng.next_float() - 0.5f),
                       base.y + 0.01f * (rng.next_float() - 0.5f),
                       base.z + 0.01f * (rng.next_float() - 0.5f)});
  }
  return queries;
}

/// A roomy batching tick: every request a test submits back to back
/// lands in one tick.
ServiceConfig roomy_tick() {
  ServiceConfig config;
  config.max_delay = std::chrono::microseconds(300'000);
  return config;
}

CloudConfig reorder_config(bool batch_reorder) {
  CloudConfig config;
  config.batch_reorder = batch_reorder;
  return config;
}

}  // namespace

// --- Report aggregation ------------------------------------------------------

TEST(ReportMerge, CountersSumExactly) {
  NeighborSearch::Report a;
  a.time.bvh = 1.0;
  a.time.refit = 0.25;
  a.stats.rays = 100;
  a.stats.is_calls = 500;
  a.num_partitions = 3;
  a.num_bundles = 2;
  a.accel_refits = 1;
  a.accel_rebuilds = 2;
  a.sah_inflation = 1.5;

  NeighborSearch::Report b;
  b.time.bvh = 0.5;
  b.time.search = 2.0;
  b.stats.rays = 50;
  b.stats.is_calls = 70;
  b.num_partitions = 4;
  b.num_bundles = 1;
  b.accel_refits = 3;
  b.accel_rebuilds = 0;
  b.sah_inflation = 1.2;

  NeighborSearch::Report total;
  total += a;
  total += b;
  EXPECT_DOUBLE_EQ(total.time.bvh, 1.5);
  EXPECT_DOUBLE_EQ(total.time.refit, 0.25);
  EXPECT_DOUBLE_EQ(total.time.search, 2.0);
  EXPECT_EQ(total.stats.rays, 150u);
  EXPECT_EQ(total.stats.is_calls, 570u);
  EXPECT_EQ(total.num_partitions, 7u);
  EXPECT_EQ(total.num_bundles, 3u);
  EXPECT_EQ(total.accel_refits, 4u);
  EXPECT_EQ(total.accel_rebuilds, 2u);
  // Aggregation keeps the worst quality, not the last.
  EXPECT_DOUBLE_EQ(total.sah_inflation, 1.5);
}

// --- Coalesced search + scatter (rtnn stages) ---------------------------------

TEST(SplitBatchResult, TagsResultsBackToRequestSlots) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  // Three requests of different sizes, concatenated.
  const std::vector<std::size_t> sizes{7, 33, 12};
  std::vector<Vec3> merged;
  std::vector<BatchSlice> slices;
  std::size_t first = 0;
  for (const std::size_t size : sizes) {
    const auto queries = client_queries(cloud, first * 13, size, kSeed + first);
    slices.push_back({merged.size(), size});
    merged.insert(merged.end(), queries.begin(), queries.end());
    ++first;
  }

  NeighborSearch batched;
  batched.set_points(cloud);
  NeighborSearch::Report report;
  const std::vector<NeighborResult> results =
      split_batch_result(batched.search(merged, params, &report), slices);
  ASSERT_EQ(results.size(), sizes.size());
  EXPECT_EQ(report.stats.rays, merged.size());  // one launch over the batch

  // Each slot must hold exactly what a solo search over its rows returns.
  NeighborSearch solo;
  solo.set_points(cloud);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_EQ(results[i].num_queries(), sizes[i]);
    const std::span<const Vec3> rows(merged.data() + slices[i].first, slices[i].count);
    const NeighborResult expected = solo.search(rows, params);
    rtnn::testing::expect_knn_identical(results[i], expected, "slice " + std::to_string(i));
  }
}

TEST(SplitBatchResult, CountsOnlyResults) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 300, kSeed);
  SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  params.store_indices = false;
  NeighborSearch search;
  search.set_points(cloud);
  const std::span<const Vec3> queries(cloud.data(), 20);
  const NeighborResult batch = search.search(queries, params);
  const std::vector<BatchSlice> slices{{0, 5}, {5, 15}};
  const auto parts = split_batch_result(batch, slices);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_FALSE(parts[0].stores_indices());
  for (std::size_t q = 0; q < 5; ++q) EXPECT_EQ(parts[0].count(q), batch.count(q));
  for (std::size_t q = 0; q < 15; ++q) EXPECT_EQ(parts[1].count(q), batch.count(5 + q));
}

// --- Engine snapshot adapter -------------------------------------------------

TEST(BackendSnapshot, EveryRegisteredBackendSnapshots) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 400, kSeed);
  const auto queries = client_queries(cloud, 0, 25, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  for (const std::string& name : engine::BackendRegistry::instance().names()) {
    SCOPED_TRACE(name);
    auto backend = engine::make_backend(name);
    ASSERT_TRUE(backend->caps().snapshot);
    backend->set_points(cloud);
    auto snapshot = backend->snapshot();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->point_count(), cloud.size());
    const NeighborResult expected = backend->search(queries, params, nullptr);
    const NeighborResult got = snapshot->search(queries, params, nullptr);
    rtnn::testing::expect_knn_identical(got, expected, name);
  }
}

TEST(BackendSnapshot, SnapshotUnaffectedByLaterUpdates) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 400, kSeed);
  const auto queries = client_queries(cloud, 7, 25, kSeed + 1);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  auto backend = engine::make_backend("rtnn");
  backend->set_points(cloud);
  const NeighborResult before = backend->search(queries, params, nullptr);

  auto snapshot = backend->snapshot();
  // Push the original far away; the snapshot must keep answering from the
  // state it captured (copy-on-write: the refit may not mutate shared
  // accel data).
  std::vector<Vec3> moved = cloud;
  for (Vec3& p : moved) p.x += 10.0f;
  backend->update_points(moved);
  (void)backend->search(queries, params, nullptr);

  const NeighborResult after = snapshot->search(queries, params, nullptr);
  rtnn::testing::expect_knn_identical(after, before, "snapshot");
}

// --- Service basics ----------------------------------------------------------

TEST(SearchService, QueryMatchesDirectBackend) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const auto queries = client_queries(cloud, 3, 40, kSeed + 2);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  for (const std::string& name : {"brute_force", "grid", "octree", "rtnn", "auto"}) {
    SCOPED_TRACE(name);
    CloudConfig config;
    config.backend = name;
    SearchService svc;
    const CloudHandle handle = svc.register_cloud("cloud", cloud, config);
    RequestOutcome outcome = svc.query(handle, queries, params);
    EXPECT_EQ(outcome.snapshot_version, 0u);
    EXPECT_GE(outcome.batch_requests, 1u);

    auto direct = engine::make_backend(name);
    direct->set_points(cloud);
    const NeighborResult expected = direct->search(queries, params, nullptr);
    rtnn::testing::expect_knn_identical(outcome.result, expected, name);
  }
}

TEST(SearchService, RangeRequestsServe) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const auto queries = client_queries(cloud, 11, 30, kSeed + 3);
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = typical_radius(CloudKind::kUniform);
  params.k = 64;

  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);
  RequestOutcome outcome = svc.query(handle, queries, params);
  auto direct = engine::make_backend("rtnn");
  direct->set_points(cloud);
  const NeighborResult expected = direct->search(queries, params, nullptr);
  rtnn::testing::expect_same_neighbor_sets(outcome.result, expected, "range");
}

TEST(SearchService, CoalescesCompatibleRequestsIntoOneBatch) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  // Both values of the knob run the same bins; only reorder/dedup differ.
  for (const bool reorder : {true, false}) {
    SCOPED_TRACE(reorder ? "batch_reorder on" : "batch_reorder off");
    SearchService svc(roomy_tick());
    const CloudHandle handle = svc.register_cloud("cloud", cloud, reorder_config(reorder));

    constexpr std::size_t kRequests = 6;
    std::vector<SearchService::Ticket> tickets;
    for (std::size_t i = 0; i < kRequests; ++i) {
      tickets.push_back(
          svc.submit(handle, client_queries(cloud, i * 31, 10 + i, kSeed + i), params));
    }
    std::size_t total_rows = 0;
    for (std::size_t i = 0; i < kRequests; ++i) total_rows += 10 + i;

    for (auto& ticket : tickets) {
      RequestOutcome outcome = ticket.get();
      // All six were pending within one tick: one coalesced dispatch.
      EXPECT_EQ(outcome.batch_requests, kRequests);
      EXPECT_EQ(outcome.batch_queries, total_rows);
    }
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.requests, kRequests);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.queries, total_rows);
  }
}

TEST(SearchService, IncompatibleParamsDispatchAsSeparateGroups) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams near = knn_params(typical_radius(CloudKind::kUniform));
  SearchParams far = near;
  far.radius *= 2.0f;

  for (const bool reorder : {true, false}) {
    SCOPED_TRACE(reorder ? "batch_reorder on" : "batch_reorder off");
    SearchService svc(roomy_tick());
    const CloudHandle handle = svc.register_cloud("cloud", cloud, reorder_config(reorder));

    auto t1 = svc.submit(handle, client_queries(cloud, 0, 8, kSeed), near);
    auto t2 = svc.submit(handle, client_queries(cloud, 50, 8, kSeed), far);
    auto t3 = svc.submit(handle, client_queries(cloud, 90, 8, kSeed), near);

    EXPECT_EQ(t1.get().batch_requests, 2u);  // grouped with t3
    EXPECT_EQ(t2.get().batch_requests, 1u);
    EXPECT_EQ(t3.get().batch_requests, 2u);
    EXPECT_EQ(svc.stats().batches, 2u);
  }
}

TEST(SearchService, PipelineOnlyParamDifferencesShareABin) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  SearchService svc(roomy_tick());
  const CloudHandle handle = svc.register_cloud("cloud", cloud);

  // Three requests, two distinct batch keys: pipeline-shaping knobs (opts)
  // are exactness-preserving, so they must not force a third launch.
  const SearchParams plain = knn_params(typical_radius(CloudKind::kUniform));
  SearchParams scheduled = plain;
  scheduled.opts = OptimizationFlags::all();
  SearchParams far = plain;
  far.radius *= 2.0f;

  auto t1 = svc.submit(handle, client_queries(cloud, 0, 8, kSeed), plain);
  auto t2 = svc.submit(handle, client_queries(cloud, 50, 8, kSeed), scheduled);
  auto t3 = svc.submit(handle, client_queries(cloud, 90, 8, kSeed), far);

  EXPECT_EQ(t1.get().batch_requests, 2u);  // binned with t2
  EXPECT_EQ(t2.get().batch_requests, 2u);
  EXPECT_EQ(t3.get().batch_requests, 1u);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 2u);  // == distinct (r, K) keys, not param tuples
  EXPECT_EQ(stats.report.batch_bins, 2u);
}

TEST(SearchService, DedupedCoincidentRowsStayExact) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService svc(roomy_tick());
  const CloudHandle on = svc.register_cloud("on", cloud);
  const CloudHandle off = svc.register_cloud("off", cloud, reorder_config(false));

  // Overlapping exact windows of the cloud: rows repeat bitwise across the
  // tick's requests (the coherent-traffic shape the optimizer dedups).
  const std::vector<std::span<const Vec3>> windows{
      std::span<const Vec3>(cloud.data(), 40),
      std::span<const Vec3>(cloud.data() + 20, 40),
      std::span<const Vec3>(cloud.data(), 40),
  };
  auto run = [&](const CloudHandle& handle) {
    std::vector<SearchService::Ticket> tickets;
    for (const auto& window : windows) tickets.push_back(svc.submit(handle, window, params));
    std::vector<RequestOutcome> outcomes;
    for (auto& ticket : tickets) outcomes.push_back(ticket.get());
    return outcomes;
  };
  const auto got = run(on);
  const auto want = run(off);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    rtnn::testing::expect_knn_identical(got[i].result, want[i].result,
                                        "request " + std::to_string(i));
  }

  // The off arm never dedups; the on arm's ray counter plus its aliased
  // rows reconstruct the submitted volume exactly.
  EXPECT_EQ(svc.stats(off).report.queries_deduped, 0u);
  const ServiceStats stats = svc.stats(on);
  EXPECT_GT(stats.report.queries_deduped, 0u);
  EXPECT_EQ(stats.report.stats.rays + stats.report.queries_deduped, stats.queries);
}

TEST(SearchService, TicketWaitForAndReady) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 500, kSeed);
  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);
  auto ticket = svc.submit(handle, client_queries(cloud, 0, 5, kSeed),
                           knn_params(typical_radius(CloudKind::kUniform)));
  ASSERT_TRUE(ticket.valid());
  ASSERT_TRUE(ticket.wait_for(std::chrono::seconds(30)));
  EXPECT_TRUE(ticket.ready());
  EXPECT_EQ(ticket.get().result.num_queries(), 5u);
}

TEST(SearchService, BackendErrorsPropagateThroughTickets) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 300, kSeed);
  CloudConfig config;
  config.backend = "fastrnn";  // KNN-only
  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud, config);

  SearchParams range;
  range.mode = SearchMode::kRange;
  range.radius = 0.1f;
  range.k = 8;
  auto ticket = svc.submit(handle, client_queries(cloud, 0, 4, kSeed), range);
  EXPECT_THROW(ticket.get(), Error);
  // A failed batch still counts its requests (the tickets were signaled),
  // but no rows were served — `queries` stays in step with the ray counter.
  EXPECT_EQ(svc.stats().requests, 1u);
  EXPECT_EQ(svc.stats().queries, 0u);

  // The service survives and keeps serving valid requests.
  const RequestOutcome ok =
      svc.query(handle, client_queries(cloud, 0, 4, kSeed), knn_params(0.1f));
  EXPECT_EQ(ok.result.num_queries(), 4u);
}

TEST(SearchService, SubmitAfterShutdownThrows) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 300, kSeed);
  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);
  auto ticket = svc.submit(handle, client_queries(cloud, 0, 4, kSeed), knn_params(0.1f));
  svc.shutdown();  // drains the queued request first
  EXPECT_NO_THROW(ticket.get());
  EXPECT_THROW(svc.submit(handle, client_queries(cloud, 0, 4, kSeed), knn_params(0.1f)),
               Error);
  EXPECT_THROW(svc.update_points(handle, cloud), Error);
  svc.shutdown();  // idempotent
}

// --- Snapshot lifecycle ------------------------------------------------------

TEST(SearchService, UpdatePublishesNextVersionOffTheReadPath) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);
  EXPECT_EQ(svc.snapshot_version(handle), 0u);

  (void)svc.query(handle, client_queries(cloud, 0, 10, kSeed), params);

  std::vector<Vec3> moved = cloud;
  for (Vec3& p : moved) p.x += 0.001f;
  svc.update_points(handle, moved);
  EXPECT_EQ(svc.snapshot_version(handle), 1u);
  EXPECT_EQ(svc.stats().updates, 1u);

  // Requests after the publish are answered by the new snapshot.
  const RequestOutcome outcome =
      svc.query(handle, client_queries(cloud, 5, 10, kSeed), params);
  EXPECT_EQ(outcome.snapshot_version, 1u);

  // A resize falls back to a fresh upload + build.
  const std::vector<Vec3> grown = make_cloud(CloudKind::kUniform, kCloudSize + 100, kSeed);
  svc.update_points(handle, grown);
  EXPECT_EQ(svc.snapshot_version(handle), 2u);
  EXPECT_EQ(svc.point_count(handle), kCloudSize + 100);
  const RequestOutcome after = svc.query(handle, client_queries(grown, 0, 10, kSeed), params);
  EXPECT_EQ(after.snapshot_version, 2u);
}

TEST(SearchService, UpdateResultsMatchFreshService) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);
  (void)svc.query(handle, client_queries(cloud, 0, 5, kSeed), params);  // set warm params

  data::DriftMotion motion(data::PointCloud(cloud.begin(), cloud.end()), {});
  const data::PointCloud& frame = motion.step();
  svc.update_points(handle, frame);

  const auto queries = client_queries(frame, 17, 40, kSeed + 9);
  const RequestOutcome outcome = svc.query(handle, queries, params);

  auto reference = engine::make_backend("brute_force");
  reference->set_points(frame);
  const NeighborResult expected = reference->search(queries, params, nullptr);
  rtnn::testing::expect_knn_identical(outcome.result, expected, "post-update");
}

TEST(SearchService, RefitRebuildIncrementsAreNeverLost) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);
  (void)svc.query(handle, client_queries(cloud, 0, 8, kSeed), params);  // sets warm params

  data::DriftMotion motion(data::PointCloud(cloud.begin(), cloud.end()), {});
  // The first query warmed the master, so every update resolves the
  // policy: exactly one refit or rebuild each, and the aggregate must see
  // every single one.
  constexpr std::uint32_t kUpdates = 5;
  for (std::uint32_t u = 0; u < kUpdates; ++u) svc.update_points(handle, motion.step());

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.updates, kUpdates);
  EXPECT_EQ(stats.report.accel_refits + stats.report.accel_rebuilds, kUpdates);
  EXPECT_GE(stats.report.time.bvh, 0.0);
  EXPECT_GE(stats.report.time.refit, 0.0);
}

// --- Exact aggregation under concurrency -------------------------------------

TEST(SearchService, ConcurrentCountsSumExactly) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 25;
  constexpr std::size_t kQueriesPerRequest = 16;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        const auto queries = client_queries(
            cloud, static_cast<std::size_t>(t) * 101 + static_cast<std::size_t>(r),
            kQueriesPerRequest, kSeed + static_cast<std::uint64_t>(t));
        const RequestOutcome outcome = svc.query(handle, queries, params);
        ASSERT_EQ(outcome.result.num_queries(), kQueriesPerRequest);
      }
    });
  }
  for (auto& c : clients) c.join();

  const ServiceStats stats = svc.stats();
  const std::uint64_t total_requests = kThreads * kRequestsPerThread;
  const std::uint64_t total_queries = total_requests * kQueriesPerRequest;
  EXPECT_EQ(stats.requests, total_requests);
  EXPECT_EQ(stats.queries, total_queries);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, total_requests);
  // One ray per *searched* row on the unscheduled KNN path: rays plus the
  // optimizer's deduped rows reconstruct the served volume exactly — no
  // lost or double-counted launches under concurrent merging. (The
  // jittered client queries rarely coincide, so deduped is usually zero;
  // the invariant holds either way.)
  EXPECT_EQ(stats.report.stats.rays + stats.report.queries_deduped, total_queries);
  // TimeBreakdown phases stay non-negative (and finite) under merging.
  const TimeBreakdown& time = stats.report.time;
  for (const double phase :
       {time.data, time.opt, time.bvh, time.refit, time.first_search, time.search}) {
    EXPECT_GE(phase, 0.0);
    EXPECT_TRUE(std::isfinite(phase));
  }
  EXPECT_GE(time.total(), 0.0);
}

// --- Reader/writer stress (the TSan target) ----------------------------------

TEST(SearchServiceStress, ManyReadersOneWriterWithIndexChurn) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 2000, kSeed);
  const float radius = typical_radius(CloudKind::kUniform);
  const SearchParams params = knn_params(radius);

  ServiceConfig config;
  config.max_delay = std::chrono::microseconds(100);
  SearchService svc(config);
  const CloudHandle handle = svc.register_cloud("cloud", cloud);

  constexpr int kReaders = 4;
  constexpr int kRequestsPerReader = 40;
  constexpr int kWriterUpdates = 12;
  std::atomic<std::uint64_t> served{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerReader; ++r) {
        const auto queries = client_queries(
            cloud, static_cast<std::size_t>(t * 53 + r), 8,
            kSeed + static_cast<std::uint64_t>(t * 1000 + r));
        RequestOutcome outcome = svc.query(handle, queries, params);
        ASSERT_EQ(outcome.result.num_queries(), queries.size());
        // Result invariants hold against whichever snapshot answered:
        // bounded rows, valid point ids.
        const std::size_t limit = 2600;  // max cloud size the writer publishes
        for (std::size_t q = 0; q < outcome.result.num_queries(); ++q) {
          ASSERT_LE(outcome.result.count(q), params.k);
          for (const std::uint32_t p : outcome.result.neighbors(q)) {
            ASSERT_LT(p, limit);
          }
        }
        served.fetch_add(queries.size(), std::memory_order_relaxed);
      }
    });
  }

  std::thread writer([&] {
    data::DriftParams drift;
    drift.velocity = 0.5f * radius;
    data::DriftMotion motion(data::PointCloud(cloud.begin(), cloud.end()), drift);
    for (int u = 0; u < kWriterUpdates; ++u) {
      if (u % 5 == 4) {
        // Occasional resize: the rebuild (new-lineage) path under load.
        const auto resized =
            make_cloud(CloudKind::kUniform, 2000 + 50 * static_cast<std::size_t>(u),
                       kSeed + static_cast<std::uint64_t>(u));
        svc.update_points(handle, resized);
        motion = data::DriftMotion(
            data::PointCloud(resized.begin(), resized.end()), drift);
      } else {
        svc.update_points(handle, motion.step());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& r : readers) r.join();
  writer.join();

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kReaders) * kRequestsPerReader);
  EXPECT_EQ(stats.queries, served.load());
  EXPECT_EQ(stats.updates, static_cast<std::uint64_t>(kWriterUpdates));
  EXPECT_EQ(svc.snapshot_version(handle), static_cast<std::uint64_t>(kWriterUpdates));
}

TEST(SearchServiceStress, ShutdownUnderConcurrentSubmitters) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 800, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService svc;
  const CloudHandle handle = svc.register_cloud("cloud", cloud);
  std::atomic<int> accepted{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < 30; ++r) {
        try {
          auto ticket = svc.submit(
              handle, client_queries(cloud, static_cast<std::size_t>(t * 31 + r), 4,
                             kSeed + static_cast<std::uint64_t>(t)),
              params);
          ticket.wait();  // accepted requests are always served, even
                          // when shutdown lands while they are queued
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error&) {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  svc.shutdown();
  for (auto& c : clients) c.join();

  EXPECT_EQ(accepted.load() + refused.load(), 4 * 30);
  EXPECT_EQ(svc.stats().requests, static_cast<std::uint64_t>(accepted.load()));
}

// --- Error contract: every RejectReason, through get() and try_get() ---------

namespace {

/// Resolves the ticket via get() and returns the typed reason.
RejectReason reason_via_get(SearchService::Ticket& ticket) {
  try {
    (void)ticket.get();
  } catch (const ServiceError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected a ServiceError through get()";
  return RejectReason::kBackend;
}

/// Resolves the ticket via wait() + try_get() and returns the typed reason.
RejectReason reason_via_try_get(SearchService::Ticket& ticket) {
  ticket.wait();
  try {
    (void)ticket.try_get();
  } catch (const ServiceError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "expected a ServiceError through try_get()";
  return RejectReason::kBackend;
}

}  // namespace

TEST(ErrorContract, EveryRejectReasonSurfacesThroughGetAndTryGet) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 400, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 8);

  {
    SCOPED_TRACE("kAdmission: shed past the burst");
    SearchService service;
    CloudConfig gated;
    gated.admission.tokens_per_second = 1e-9;
    gated.admission.burst = 1.0;
    const CloudHandle handle = service.register_cloud("gated", cloud, gated);
    (void)service.query(handle, queries, params);  // spends the burst token
    auto shed_a = service.submit(handle, queries, params);
    auto shed_b = service.submit(handle, queries, params);
    EXPECT_EQ(reason_via_get(shed_a), RejectReason::kAdmission);
    EXPECT_EQ(reason_via_try_get(shed_b), RejectReason::kAdmission);
  }

  {
    SCOPED_TRACE("kShutdown: cloud dropped with requests pending");
    ServiceConfig config;
    config.max_delay = std::chrono::microseconds(100'000);
    SearchService service(config);
    const CloudHandle handle = service.register_cloud("doomed", cloud);
    auto pending_a = service.submit(handle, queries, params);
    auto pending_b = service.submit(handle, queries, params);
    service.drop_cloud("doomed");
    EXPECT_EQ(reason_via_get(pending_a), RejectReason::kShutdown);
    EXPECT_EQ(reason_via_try_get(pending_b), RejectReason::kShutdown);
  }

  {
    SCOPED_TRACE("kBackend: injected launch fault on a tiled cloud");
    SearchService service;
    CloudConfig tiled;
    tiled.tile_threshold = 64;
    tiled.max_tiles = 4;
    const CloudHandle handle = service.register_cloud("tiled", cloud, tiled);
    fail::ScopedFailpoint fp("service.dispatch.launch", {});
    auto failed_a = service.submit(handle, queries, params);
    auto failed_b = service.submit(handle, queries, params);
    EXPECT_EQ(reason_via_get(failed_a), RejectReason::kBackend);
    EXPECT_EQ(reason_via_try_get(failed_b), RejectReason::kBackend);
  }

  {
    SCOPED_TRACE("kDeadline: dead on arrival");
    SearchService service;
    const CloudHandle handle = service.register_cloud("slow", cloud);
    RequestOptions late;
    late.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    auto missed_a = service.submit(handle, queries, params, late);
    auto missed_b = service.submit(handle, queries, params, late);
    EXPECT_EQ(reason_via_get(missed_a), RejectReason::kDeadline);
    EXPECT_EQ(reason_via_try_get(missed_b), RejectReason::kDeadline);
  }
}

TEST(ErrorContract, EmptyCloudsAreRefusedTyped) {
  // Regression: an empty registration or update on a decomposed tenant
  // used to fall through to the backend's raw
  // RTNN_CHECK(!points.empty()) internals instead of a typed door-level
  // rejection, and an empty request threw an untyped rtnn::Error. Every
  // door must throw ServiceError(kInvalid) for every cloud shape, and
  // leave the registry untouched.
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 400, kSeed);
  const std::vector<Vec3> empty;

  SearchService service;
  CloudConfig tiled;
  tiled.tile_threshold = 64;
  tiled.max_tiles = 4;
  for (const auto& [label, config] :
       {std::pair<const char*, CloudConfig>{"plain", CloudConfig{}},
        std::pair<const char*, CloudConfig>{"tiled", tiled}}) {
    SCOPED_TRACE(label);
    try {
      (void)service.register_cloud(std::string("empty-") + label, empty, config);
      FAIL() << "empty registration must throw";
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.reason(), RejectReason::kInvalid);
    }
    // Nothing was registered: the name is free for a real cloud.
    const CloudHandle handle =
        service.register_cloud(std::string("empty-") + label, cloud, config);

    try {
      service.update_points(handle, empty);
      FAIL() << "empty update must throw";
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.reason(), RejectReason::kInvalid);
    }
    // An empty request is malformed input too, at submit() and query().
    const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
    for (const bool sync : {false, true}) {
      try {
        if (sync) {
          (void)service.query(handle, empty, params);
        } else {
          (void)service.submit(handle, empty, params);
        }
        FAIL() << "an empty request must throw";
      } catch (const ServiceError& error) {
        EXPECT_EQ(error.reason(), RejectReason::kInvalid);
      }
    }
    // The cloud still serves its original points after the refused update.
    const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 8);
    EXPECT_EQ(service.query(handle, queries, params).result.num_queries(), queries.size());
  }
}

TEST(ErrorContract, NonFinitePointsAreRefusedTypedAndLeaveTheCloudUnchanged) {
  // Regression: a NaN point reached the tile planner, whose bounds a NaN
  // resets, so the tile holding it got bounds that excluded most of its
  // members and the top-level walk culled them (wrong rows, no error).
  // Registration and update must both refuse it typed, before any state
  // changes.
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 2000, kSeed);
  const std::vector<Vec3> queries = make_cloud(CloudKind::kUniform, 200, kSeed + 1);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  auto reference = engine::make_backend("brute_force");
  reference->set_points(cloud);
  const NeighborResult expected = reference->search(queries, params, nullptr);

  SearchService service;
  CloudConfig tiled;
  tiled.tile_threshold = 200;  // 10 tiles
  const CloudHandle handle = service.register_cloud("tiled", cloud, tiled);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    std::vector<Vec3> poisoned = cloud;
    poisoned[17].y = bad;
    SCOPED_TRACE(bad);
    try {
      (void)service.register_cloud("poisoned", poisoned, tiled);
      FAIL() << "a non-finite registration must throw";
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.reason(), RejectReason::kInvalid);
    }
    try {
      service.update_points(handle, poisoned);
      FAIL() << "a non-finite update must throw";
    } catch (const ServiceError& error) {
      EXPECT_EQ(error.reason(), RejectReason::kInvalid);
    }
  }
  EXPECT_EQ(service.list_clouds(), std::vector<std::string>{"tiled"});
  EXPECT_EQ(service.snapshot_version(handle), 0u);
  EXPECT_EQ(service.stats(handle).updates, 0u);
  rtnn::testing::expect_knn_identical(service.query(handle, queries, params).result,
                                      expected, "after the refused update");
}
