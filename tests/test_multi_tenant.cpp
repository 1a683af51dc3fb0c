// The multi-tenant serving surface: the cloud registry (register / drop /
// list / handles), build-on-demand and LRU residency, admission control
// (token bucket + queue-depth shedding, the typed ServiceError contract),
// the Ticket try_get()/valid() additions, per-cloud vs service-wide
// stats, and multi-cloud concurrency. Carries the "service" ctest label
// (the TSan CI job runs it alongside the service suite).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/failpoint.hpp"
#include "core/rng.hpp"
#include "engine/engine.hpp"
#include "service/admission.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

using namespace rtnn;
using namespace rtnn::service;
using rtnn::testing::CloudKind;
using rtnn::testing::make_cloud;
using rtnn::testing::typical_radius;

namespace {

constexpr std::size_t kCloudSize = 800;
constexpr std::uint64_t kSeed = 431;

SearchParams knn_params(float radius, std::uint32_t k = 8) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = radius;
  params.k = k;
  params.opts = OptimizationFlags::none();
  return params;
}

std::vector<Vec3> uniform_cloud(std::uint64_t seed, std::size_t n = kCloudSize) {
  return make_cloud(CloudKind::kUniform, n, seed);
}

/// Expected result for `queries` against `points`, straight from brute
/// force (the service must serve exactly this, tiled or not).
NeighborResult expected_knn(const std::vector<Vec3>& points,
                            const std::vector<Vec3>& queries, const SearchParams& params) {
  auto reference = engine::make_backend("brute_force");
  reference->set_points(points);
  return reference->search(queries, params, nullptr);
}

}  // namespace

// --- TokenBucket (deterministic clock) ---------------------------------------

TEST(TokenBucket, RateZeroNeverGates) {
  TokenBucket bucket(0.0, 0.0);
  EXPECT_TRUE(bucket.unlimited());
  const auto t0 = std::chrono::steady_clock::time_point{};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(t0));
}

TEST(TokenBucket, BurstThenSustainedRate) {
  using namespace std::chrono_literals;
  const auto t0 = std::chrono::steady_clock::time_point{} + 1h;
  TokenBucket bucket(/*tokens_per_second=*/2.0, /*burst=*/3.0);
  EXPECT_FALSE(bucket.unlimited());

  // The burst allowance drains first.
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_TRUE(bucket.try_take(t0));
  EXPECT_FALSE(bucket.try_take(t0));  // empty: shed

  // Refill at the sustained rate: 2 tokens/s.
  EXPECT_TRUE(bucket.try_take(t0 + 500ms));   // +1 token
  EXPECT_FALSE(bucket.try_take(t0 + 500ms));  // spent again
  EXPECT_TRUE(bucket.try_take(t0 + 1500ms));  // +2, take 1
  EXPECT_TRUE(bucket.try_take(t0 + 1500ms));
  EXPECT_FALSE(bucket.try_take(t0 + 1500ms));

  // Refill caps at the burst: a long quiet period does not bank tokens.
  EXPECT_DOUBLE_EQ(bucket.available(t0 + 1h), 3.0);
}

// --- Registry lifecycle ------------------------------------------------------

TEST(CloudRegistry, RegisterListQueryDrop) {
  const std::vector<Vec3> city = uniform_cloud(kSeed);
  const std::vector<Vec3> park = uniform_cloud(kSeed + 1, 500);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService service;
  EXPECT_TRUE(service.list_clouds().empty());

  const CloudHandle ch = service.register_cloud("city", city);
  const CloudHandle ph = service.register_cloud("park", park);
  EXPECT_TRUE(ch.valid());
  EXPECT_EQ(ch.name(), "city");
  EXPECT_EQ(service.list_clouds(), (std::vector<std::string>{"city", "park"}));
  EXPECT_EQ(service.point_count(ch), city.size());
  EXPECT_EQ(service.point_count(ph), park.size());
  EXPECT_EQ(service.snapshot_version(ch), 0u);

  // Each tenant answers from its own cloud, exactly.
  const std::vector<Vec3> queries(city.begin(), city.begin() + 24);
  rtnn::testing::expect_knn_identical(service.query(ch, queries, params).result,
                                      expected_knn(city, queries, params), "city");
  rtnn::testing::expect_knn_identical(service.query(ph, queries, params).result,
                                      expected_knn(park, queries, params), "park");

  // Name-addressed overloads hit the same clouds as the handles.
  rtnn::testing::expect_knn_identical(service.query("park", queries, params).result,
                                      expected_knn(park, queries, params), "park by name");
  EXPECT_EQ(service.cloud("city").name(), "city");

  service.drop_cloud("park");
  EXPECT_EQ(service.list_clouds(), (std::vector<std::string>{"city"}));
  // A dropped cloud's handle turns into a throwing handle.
  try {
    (void)service.query(ph, queries, params);
    FAIL() << "query on a dropped cloud must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
  }
  // The survivor is untouched.
  (void)service.query(ch, queries, params);
}

TEST(CloudRegistry, DuplicateAndUnknownNamesThrow) {
  const std::vector<Vec3> points = uniform_cloud(kSeed, 200);
  SearchService service;
  (void)service.register_cloud("a", points);
  EXPECT_THROW((void)service.register_cloud("a", points), Error);
  EXPECT_THROW((void)service.cloud("nope"), Error);
  EXPECT_THROW(service.drop_cloud("nope"), Error);
}

// --- Index lifecycle: build on demand, warmup, LRU eviction -------------------

TEST(CloudLifecycle, BuildOnDemandDefersTheIndex) {
  const std::vector<Vec3> cloud = uniform_cloud(kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService service;
  CloudConfig lazy;
  lazy.build_on_register = false;
  const CloudHandle handle = service.register_cloud("lazy", cloud, lazy);
  EXPECT_EQ(service.resident_clouds(), 0u);  // registration stored points only
  EXPECT_EQ(service.stats().builds, 0u);

  // The first request pays the build; results are exact regardless.
  const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 16);
  rtnn::testing::expect_knn_identical(service.query(handle, queries, params).result,
                                      expected_knn(cloud, queries, params), "first query");
  EXPECT_EQ(service.resident_clouds(), 1u);
  EXPECT_EQ(service.stats().builds, 1u);
  EXPECT_EQ(service.stats(handle).builds, 1u);
}

TEST(CloudLifecycle, WarmupProbeRunsAtBuild) {
  const std::vector<Vec3> cloud = uniform_cloud(kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService service;
  CloudConfig warm;
  warm.warmup = params;
  const CloudHandle handle = service.register_cloud("warm", cloud, warm);
  EXPECT_EQ(service.resident_clouds(), 1u);
  // The warm probe's pipeline time is attributed to the cloud's report,
  // so the first real request doesn't pay first-search lazy work.
  const ServiceStats stats = service.stats(handle);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_GT(stats.report.time.first_search + stats.report.time.search, 0.0);
}

TEST(CloudLifecycle, ResidencyCapEvictsLeastRecentlyUsed) {
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  ServiceConfig config;
  config.max_resident_clouds = 2;
  SearchService service(config);

  const std::vector<Vec3> a = uniform_cloud(kSeed, 300);
  const std::vector<Vec3> b = uniform_cloud(kSeed + 1, 300);
  const std::vector<Vec3> c = uniform_cloud(kSeed + 2, 300);
  const CloudHandle ha = service.register_cloud("a", a);
  const CloudHandle hb = service.register_cloud("b", b);
  EXPECT_EQ(service.resident_clouds(), 2u);

  // A third resident index pushes out the least-recently-used ("a").
  const CloudHandle hc = service.register_cloud("c", c);
  EXPECT_EQ(service.resident_clouds(), 2u);
  EXPECT_EQ(service.stats().evictions, 1u);
  EXPECT_EQ(service.stats(ha).evictions, 1u);

  // The evicted cloud still serves: traffic rebuilds it transparently
  // (and the cap evicts the next-coldest in turn).
  const std::vector<Vec3> queries(a.begin(), a.begin() + 12);
  rtnn::testing::expect_knn_identical(service.query(ha, queries, params).result,
                                      expected_knn(a, queries, params), "rebuilt");
  EXPECT_EQ(service.resident_clouds(), 2u);
  EXPECT_GE(service.stats(ha).builds, 2u);  // registration + rebuild

  // Updates on a non-resident cloud bump the version without building.
  (void)service.query(hb, queries, params);
  (void)service.query(hc, queries, params);  // "a" is cold again
  std::vector<Vec3> moved = a;
  for (Vec3& p : moved) p.y += 0.1f;
  service.update_points(ha, moved);
  EXPECT_EQ(service.snapshot_version(ha), 1u);
  const RequestOutcome outcome = service.query(ha, queries, params);
  EXPECT_EQ(outcome.snapshot_version, 1u);
  rtnn::testing::expect_knn_identical(outcome.result, expected_knn(moved, queries, params),
                                      "updated while cold");
}

TEST(CloudLifecycle, EvictionWhileABatchIsInFlightServesExactly) {
  // Regression: the LRU pass must never yank an index out from under a
  // pinned batch. The dispatcher is wedged *after* pinning the snapshot
  // (service.dispatch.launch), the cloud is evicted from the main thread
  // mid-flight, and the batch must still serve bit-exact answers off its
  // pin while the registry shows the eviction.
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  ServiceConfig config;
  config.max_resident_clouds = 1;
  SearchService service(config);

  const std::vector<Vec3> hot = uniform_cloud(kSeed, 300);
  const std::vector<Vec3> cold = uniform_cloud(kSeed + 1, 300);
  const CloudHandle hhot = service.register_cloud("hot", hot);

  fail::FailConfig wedge;
  wedge.action = fail::Action::kDelay;
  wedge.delay = std::chrono::milliseconds(120);
  wedge.max_fires = 1;
  fail::ScopedFailpoint fp("service.dispatch.launch", wedge);

  const std::vector<Vec3> queries(hot.begin(), hot.begin() + 12);
  SearchService::Ticket inflight = service.submit(hhot, queries, params);
  // Let the dispatcher pop, pin "hot"'s snapshot, and hit the wedge.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  // Registering "cold" under a cap of one evicts "hot" while its batch
  // is in flight: master and published snapshot are dropped, but the
  // batch's own pin keeps the index alive.
  const CloudHandle hcold = service.register_cloud("cold", cold);
  EXPECT_EQ(service.resident_clouds(), 1u);
  EXPECT_GE(service.stats(hhot).evictions, 1u);

  rtnn::testing::expect_knn_identical(inflight.get().result, expected_knn(hot, queries, params),
                                      "in-flight batch across eviction");

  // Both tenants keep serving afterwards ("hot" rebuilds on demand).
  EXPECT_NO_THROW((void)service.query(hcold, queries, params));
  rtnn::testing::expect_knn_identical(service.query(hhot, queries, params).result,
                                      expected_knn(hot, queries, params), "rebuilt after eviction");
}

// --- Tiled clouds through the service ----------------------------------------

TEST(TiledCloud, ServesExactlyAndComposesWithTheOptimizer) {
  const std::vector<Vec3> cloud = uniform_cloud(kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService service;
  CloudConfig tiled;
  tiled.tile_threshold = 100;  // 800 points -> 8 tiles
  const CloudHandle handle = service.register_cloud("tiled", cloud, tiled);

  const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 48);
  const RequestOutcome outcome = service.query(handle, queries, params);
  EXPECT_EQ(outcome.report.tile_count, 8u);
  rtnn::testing::expect_knn_identical(outcome.result, expected_knn(cloud, queries, params),
                                      "tiled knn");

  // The writer path composes: update then query, still exact.
  std::vector<Vec3> moved = cloud;
  for (Vec3& p : moved) p.z += 0.07f;
  service.update_points(handle, moved);
  rtnn::testing::expect_knn_identical(service.query(handle, queries, params).result,
                                      expected_knn(moved, queries, params), "tiled after update");
}

// --- Admission control -------------------------------------------------------

TEST(Admission, TokenBucketShedsBeyondTheBurst) {
  const std::vector<Vec3> cloud = uniform_cloud(kSeed, 300);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService service;
  CloudConfig gated;
  gated.admission.tokens_per_second = 1e-9;  // effectively: the burst only
  gated.admission.burst = 2.0;
  const CloudHandle handle = service.register_cloud("gated", cloud, gated);

  const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 8);
  SearchService::Ticket first = service.submit(handle, queries, params);
  SearchService::Ticket second = service.submit(handle, queries, params);
  SearchService::Ticket third = service.submit(handle, queries, params);

  // The two burst tokens admit and serve normally.
  (void)first.get();
  (void)second.get();

  // The third is shed at submit(): already rejected, never queued.
  ASSERT_TRUE(third.valid());
  EXPECT_TRUE(third.ready());
  try {
    (void)third.get();
    FAIL() << "shed ticket must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kAdmission);
  }
  const ServiceStats stats = service.stats(handle);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.requests, 2u);  // shed requests are not "served"
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST(Admission, QueueDepthCapShedsTheBacklog) {
  const std::vector<Vec3> cloud = uniform_cloud(kSeed, 300);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  ServiceConfig config;
  config.max_delay = std::chrono::microseconds(50'000);  // hold a big tick
  SearchService service(config);
  CloudConfig capped;
  capped.admission.max_queue_depth = 2;
  const CloudHandle handle = service.register_cloud("capped", cloud, capped);

  const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 8);
  std::vector<SearchService::Ticket> tickets;
  std::size_t shed = 0;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(service.submit(handle, queries, params));
  }
  for (auto& ticket : tickets) {
    try {
      (void)ticket.get();
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.reason(), RejectReason::kAdmission);
      ++shed;
    }
  }
  // With the dispatcher holding a 50ms tick, at most 2 of the 6 fit the
  // pending cap at any instant; the rest were shed at the door.
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(service.stats(handle).shed, shed);
  EXPECT_EQ(service.stats(handle).requests + shed, 6u);
}

// --- Ticket contract ---------------------------------------------------------

TEST(Ticket, TryGetIsNonBlockingAndValidTracksState) {
  const std::vector<Vec3> cloud = uniform_cloud(kSeed, 300);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  SearchService::Ticket unset;
  EXPECT_FALSE(unset.valid());

  ServiceConfig config;
  config.max_delay = std::chrono::microseconds(200'000);
  SearchService service(config);
  const CloudHandle handle = service.register_cloud("t", cloud);

  const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 8);
  SearchService::Ticket ticket = service.submit(handle, queries, params);
  EXPECT_TRUE(ticket.valid());
  // Inside the 200ms batching tick: pending, so try_get is empty.
  EXPECT_EQ(ticket.try_get(), std::nullopt);

  ticket.wait();
  const std::optional<RequestOutcome> outcome = ticket.try_get();
  ASSERT_TRUE(outcome.has_value());
  rtnn::testing::expect_knn_identical(outcome->result, expected_knn(cloud, queries, params),
                                      "try_get outcome");
}

TEST(Ticket, ShutdownAndDropRejectWithTypedErrors) {
  const std::vector<Vec3> cloud = uniform_cloud(kSeed, 300);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 8);

  // Dropping a cloud rejects its pending requests with kShutdown.
  {
    ServiceConfig config;
    config.max_delay = std::chrono::microseconds(100'000);
    SearchService service(config);
    const CloudHandle handle = service.register_cloud("doomed", cloud);
    SearchService::Ticket pending = service.submit(handle, queries, params);
    service.drop_cloud("doomed");
    try {
      (void)pending.get();
      FAIL() << "a dropped cloud's pending request must be rejected";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    }
  }

  // submit() and register_cloud() after shutdown throw immediately.
  {
    SearchService service;
    const CloudHandle handle = service.register_cloud("s", cloud);
    service.shutdown();
    try {
      (void)service.submit(handle, queries, params);
      FAIL() << "submit after shutdown must throw";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    }
    try {
      (void)service.register_cloud("late", cloud);
      FAIL() << "register_cloud after shutdown must throw";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.reason(), RejectReason::kShutdown);
    }
    EXPECT_EQ(service.list_clouds(), (std::vector<std::string>{"s"}));
  }
}

// --- Stats -------------------------------------------------------------------

TEST(Stats, ServiceWideTotalsAreTheSumOfTenants) {
  const std::vector<Vec3> a = uniform_cloud(kSeed, 400);
  const std::vector<Vec3> b = uniform_cloud(kSeed + 1, 400);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  // One resident index at a time, so alternating tenants churn builds
  // and evictions; b's bucket holds two tokens, so a third request sheds.
  ServiceConfig config;
  config.max_resident_clouds = 1;
  SearchService service(config);
  CloudConfig gated;
  gated.admission.tokens_per_second = 1e-9;
  gated.admission.burst = 2.0;
  const CloudHandle ha = service.register_cloud("a", a);
  const CloudHandle hb = service.register_cloud("b", b, gated);  // evicts a

  const std::vector<Vec3> qa(a.begin(), a.begin() + 16);
  const std::vector<Vec3> qb(b.begin(), b.begin() + 32);
  for (int i = 0; i < 3; ++i) (void)service.query(ha, qa, params);  // rebuilds a
  for (int i = 0; i < 2; ++i) (void)service.query(hb, qb, params);  // rebuilds b
  EXPECT_THROW((void)service.query(hb, qb, params), ServiceError);  // shed
  RequestOptions late;
  late.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_THROW((void)service.query(ha, qa, params, late), ServiceError);  // missed
  std::vector<Vec3> moved = b;
  for (Vec3& p : moved) p.x += 0.02f;
  service.update_points(hb, moved);

  const ServiceStats sa = service.stats(ha);
  const ServiceStats sb = service.stats(hb);
  const ServiceStats total = service.stats();
  EXPECT_EQ(sa.requests, 3u);
  EXPECT_EQ(sb.requests, 2u);
  EXPECT_EQ(sa.queries, 48u);
  EXPECT_EQ(sb.queries, 64u);
  EXPECT_EQ(sb.updates, 1u);
  EXPECT_EQ(sb.shed, 1u);
  EXPECT_EQ(sa.deadline_misses, 1u);
  EXPECT_EQ(sa.builds, 2u);
  EXPECT_EQ(sb.builds, 2u);
  EXPECT_EQ(sa.evictions, 2u);
  EXPECT_EQ(sb.evictions, 1u);
  EXPECT_EQ(sa.batches, 3u);
  EXPECT_EQ(sb.batches, 2u);
  EXPECT_EQ(total.requests, sa.requests + sb.requests);
  EXPECT_EQ(total.queries, sa.queries + sb.queries);
  EXPECT_EQ(total.updates, sa.updates + sb.updates);
  EXPECT_EQ(total.builds, sa.builds + sb.builds);
  EXPECT_EQ(total.batches, sa.batches + sb.batches);
  EXPECT_EQ(total.shed, sa.shed + sb.shed);
  EXPECT_EQ(total.deadline_misses, sa.deadline_misses + sb.deadline_misses);
  EXPECT_EQ(total.evictions, sa.evictions + sb.evictions);
  // The same per-batch values accumulate into both levels; only the
  // addition order differs, so allow an ulp of float reassociation.
  EXPECT_NEAR(total.report.time.search, sa.report.time.search + sb.report.time.search,
              1e-12);
}

// --- Multi-tenant concurrency ------------------------------------------------

TEST(MultiTenant, ConcurrentClientsAcrossCloudsStayIsolated) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));

  std::vector<std::vector<Vec3>> clouds;
  for (int t = 0; t < 3; ++t) clouds.push_back(uniform_cloud(kSeed + t, 600));

  SearchService service;
  std::vector<CloudHandle> handles;
  for (int t = 0; t < 3; ++t) {
    CloudConfig config;
    if (t == 2) config.tile_threshold = 128;  // one tenant tiled
    handles.push_back(
        service.register_cloud("tenant" + std::to_string(t), clouds[t], config));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      Pcg32 rng(kSeed + 100 + c);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int t = static_cast<int>(rng.next_bounded(3));
        const std::vector<Vec3>& cloud = clouds[static_cast<std::size_t>(t)];
        const std::size_t first = rng.next_bounded(500);
        const std::vector<Vec3> queries(cloud.begin() + first, cloud.begin() + first + 16);
        const RequestOutcome outcome =
            service.query(handles[static_cast<std::size_t>(t)], queries, params);
        // Answers must come from the addressed tenant's cloud: a query
        // sitting on one of its own points must see that exact hit
        // (distance 0) among its neighbors.
        bool exact_hit = false;
        for (const std::uint32_t id : outcome.result.neighbors(0)) {
          if (distance2(cloud[id], queries[0]) == 0.0f) exact_hit = true;
        }
        if (!exact_hit) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.stats().requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}
