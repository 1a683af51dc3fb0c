// Chaos suite: every recovery path in the serving stack driven by the
// deterministic failpoints compiled into production code
// (core/failpoint.hpp; the site names are listed in service.hpp's header
// comment). Each scenario arms a site, provokes the failure, and asserts
// the contracted behavior: typed errors, exact stats, watchdog recovery
// — and above all that no ticket is ever abandoned.
// Carries the "chaos" ctest label; CI runs it under both ASan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.hpp"
#include "core/rng.hpp"
#include "engine/registry.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

using namespace rtnn;
using namespace rtnn::service;
using fail::Action;
using fail::FailConfig;
using fail::FailpointRegistry;
using fail::InjectedFault;
using fail::ScopedFailpoint;
using rtnn::testing::CloudKind;
using rtnn::testing::make_cloud;
using rtnn::testing::typical_radius;

using namespace std::chrono_literals;

namespace {

constexpr std::size_t kCloudSize = 384;
constexpr std::uint64_t kSeed = 4242;

SearchParams knn_params(std::uint32_t k = 8) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = typical_radius(CloudKind::kUniform);
  params.k = k;
  params.opts = OptimizationFlags::none();
  return params;
}

/// A cloud config that tiles the test cloud (6 lazy Morton tiles).
CloudConfig tiled_cloud_config() {
  CloudConfig config;
  config.tile_threshold = 64;
  config.max_tiles = 6;
  return config;
}

/// The exact KNN rows of `queries` over `points`.
NeighborResult brute_force_knn(const std::vector<Vec3>& points,
                               const std::vector<Vec3>& queries) {
  auto reference = engine::make_backend("brute_force");
  reference->set_points(points);
  return reference->search(queries, knn_params(), nullptr);
}

/// Bounded poll: true once `done()` holds, false after 5 s.
template <typename Done>
bool eventually(const Done& done) {
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }

  std::vector<Vec3> points_ = make_cloud(CloudKind::kUniform, kCloudSize, kSeed);
  std::vector<Vec3> queries_ =
      std::vector<Vec3>(points_.begin(), points_.begin() + 48);
};

}  // namespace

// --- Service: publish, eviction, and dispatch-site faults --------------------

TEST_F(ChaosTest, PublishFaultFailsTheWriterButReadersKeepServing) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  const std::uint64_t version = service.snapshot_version(cloud);

  std::vector<Vec3> moved = points_;
  for (Vec3& p : moved) p.x += 0.05f;
  {
    ScopedFailpoint fp("service.publish", {});
    EXPECT_THROW(service.update_points(cloud, moved), InjectedFault);
  }
  // The failed publish left no trace: old version, old snapshot, and the
  // read path untouched.
  EXPECT_EQ(service.snapshot_version(cloud), version);
  EXPECT_EQ(service.stats(cloud).updates, 0u);
  EXPECT_NO_THROW((void)service.query(cloud, queries_, knn_params()));

  // A retried update goes through cleanly.
  service.update_points(cloud, moved);
  EXPECT_EQ(service.snapshot_version(cloud), version + 1);
  EXPECT_EQ(service.stats(cloud).updates, 1u);
}

TEST_F(ChaosTest, DemandBuildFaultRejectsKBackendThenRebuilds) {
  SearchService service;
  CloudConfig config;
  config.build_on_register = false;
  CloudHandle cloud = service.register_cloud("chaos", points_, config);
  ASSERT_EQ(service.resident_clouds(), 0u);

  FailConfig fire_once;
  fire_once.fire_on_hit = 1;  // the demand build fails once, then heals
  ScopedFailpoint fp("service.publish", fire_once);
  try {
    (void)service.query(cloud, queries_, knn_params());
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kBackend);
  }
  // The next request rebuilds on demand and serves.
  EXPECT_NO_THROW((void)service.query(cloud, queries_, knn_params()));
  EXPECT_EQ(service.resident_clouds(), 1u);
}

TEST_F(ChaosTest, EvictionFaultNeverFailsRequests) {
  ServiceConfig service_config;
  service_config.max_resident_clouds = 1;
  SearchService service(service_config);
  CloudHandle a = service.register_cloud("tenant_a", points_, {});

  ScopedFailpoint fp("service.evict", {});
  // Registering B pushes past the cap; the eviction pass throws — the
  // registration and every request path must shrug it off.
  const std::vector<Vec3> other = make_cloud(CloudKind::kUniform, kCloudSize, kSeed + 1);
  CloudHandle b;
  EXPECT_NO_THROW(b = service.register_cloud("tenant_b", other, {}));
  EXPECT_NO_THROW((void)service.query(a, queries_, knn_params()));
  EXPECT_NO_THROW((void)service.query(b, queries_, knn_params()));
  EXPECT_GE(service.health().eviction_failures, 1u);
  EXPECT_EQ(service.stats().evictions, 0u);  // the pass never completed

  // Healed: the next build enforces the cap for real.
  FailpointRegistry::instance().disarm("service.evict");
  const std::vector<Vec3> third = make_cloud(CloudKind::kUniform, kCloudSize, kSeed + 2);
  (void)service.register_cloud("tenant_c", third, {});
  EXPECT_LE(service.resident_clouds(), 2u);
  EXPECT_GE(service.stats().evictions, 1u);
}

TEST_F(ChaosTest, TickFaultRejectsTheBatchAndTheDispatcherSurvives) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  FailConfig config;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.tick", config);
  try {
    (void)service.query(cloud, queries_, knn_params());
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kBackend);
  }
  EXPECT_NO_THROW((void)service.query(cloud, queries_, knn_params()));
  const ServiceStats stats = service.stats(cloud);
  EXPECT_EQ(stats.requests, 2u);  // the failed tick's request still counted
}

TEST_F(ChaosTest, LaunchFaultRejectsTheGroupTyped) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  FailConfig config;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.launch", config);
  try {
    (void)service.query(cloud, queries_, knn_params());
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kBackend);
    EXPECT_NE(std::string(e.what()).find("service.dispatch.launch"),
              std::string::npos);
  }
  EXPECT_NO_THROW((void)service.query(cloud, queries_, knn_params()));
}

TEST_F(ChaosTest, AllocFailureAtTheTickIsATypedRejection) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  FailConfig config;
  config.action = Action::kAllocFail;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.tick", config);
  try {
    (void)service.query(cloud, queries_, knn_params());
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kBackend);  // bad_alloc, typed & contained
  }
  EXPECT_NO_THROW((void)service.query(cloud, queries_, knn_params()));
}

TEST_F(ChaosTest, LaunchFaultInOneCloudGroupLeavesTheTicksOtherGroupsServing) {
  // Two tenants in one tick: the first cloud group's launch faults, the
  // second group still serves, exactly.
  ServiceConfig service_config;
  service_config.max_delay = 20ms;  // wide tick so both requests coalesce
  SearchService service(service_config);
  CloudHandle fragile = service.register_cloud("fragile", points_, tiled_cloud_config());
  const std::vector<Vec3> other = make_cloud(CloudKind::kUniform, kCloudSize, kSeed + 3);
  CloudHandle solid = service.register_cloud("solid", other, {});

  FailConfig config;
  config.fire_on_hit = 1;  // the first cloud group to launch: arrival order
  ScopedFailpoint fp("service.dispatch.launch", config);
  SearchService::Ticket bad = service.submit(fragile, queries_, knn_params());
  SearchService::Ticket good = service.submit(solid, queries_, knn_params());
  EXPECT_THROW((void)bad.get(), ServiceError);
  rtnn::testing::expect_knn_identical(good.get().result, brute_force_knn(other, queries_),
                                      "the other group");
  EXPECT_EQ(fp.fires(), 1u);
  EXPECT_EQ(service.stats(fragile).requests, 1u);
  EXPECT_EQ(service.stats(fragile).queries, 0u);  // failed: no rows served
  EXPECT_EQ(service.stats(solid).queries, queries_.size());
}

TEST_F(ChaosTest, DroppedCloudSettlesItsQueuedRequestAsShutdown) {
  ServiceConfig service_config;
  service_config.max_delay = 250ms;  // the request waits in the tick for the drop
  SearchService service(service_config);
  CloudHandle cloud = service.register_cloud("doomed", points_, {});
  SearchService::Ticket ticket = service.submit(cloud, queries_, knn_params());
  service.drop_cloud("doomed");
  try {
    (void)ticket.get();
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
  }
  // Admitted, so counted as a request — per cloud (the handle still reads
  // the dropped tenant's totals) and service-wide; no rows, no miss.
  const ServiceStats stats = service.stats(cloud);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(service.stats().requests, 1u);
  EXPECT_EQ(service.health().pending_requests, 0u);
}

// --- Deadlines ---------------------------------------------------------------

TEST_F(ChaosTest, DeadlineAlreadyOverResolvesAtTheDoor) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  RequestOptions options;
  options.deadline = std::chrono::steady_clock::now() - 1ms;
  SearchService::Ticket ticket = service.submit(cloud, queries_, knn_params(), options);
  EXPECT_TRUE(ticket.ready()) << "a dead-on-arrival request resolves immediately";
  try {
    (void)ticket.get();
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadline);
  }
  const ServiceStats stats = service.stats(cloud);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.requests, 0u);  // never queued: counted like shed
  EXPECT_EQ(stats.shed, 0u);      // ...but not *as* shed
}

TEST_F(ChaosTest, DeadlineExpiringInTheQueueIsDroppedBeforeLaunch) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  // Wedge the dispatcher for one tick, well past B's budget.
  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 150ms;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.tick", config);

  SearchService::Ticket a = service.submit(cloud, queries_, knn_params());
  // B arrives once A's tick is wedged, so it waits in the queue past its
  // budget and the queue gate drops it as it is popped.
  ASSERT_TRUE(eventually([&] { return fp.fires() == 1; }));
  SearchService::Ticket b = service.submit(cloud, queries_, knn_params(),
                                           RequestOptions::within(30ms));
  EXPECT_NO_THROW((void)a.get());
  try {
    (void)b.get();
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadline);
  }
  const ServiceStats stats = service.stats(cloud);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.requests, 2u);  // queued misses count as requests
}

TEST_F(ChaosTest, DeadlineExpiringAtThePreLaunchGateIsDropped) {
  ServiceConfig service_config;
  service_config.max_delay = 10ms;
  SearchService service(service_config);
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  // The wedge sits *after* the snapshot pin, so B expires at the last
  // gate before work starts.
  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 150ms;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.launch", config);

  SearchService::Ticket a = service.submit(cloud, queries_, knn_params());
  SearchService::Ticket b = service.submit(cloud, queries_, knn_params(),
                                           RequestOptions::within(40ms));
  EXPECT_NO_THROW((void)a.get());
  try {
    (void)b.get();
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadline);
  }
  const ServiceStats stats = service.stats(cloud);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.requests, 2u);  // a pre-launch miss was admitted: a request
  EXPECT_EQ(service.health().pending_requests, 0u);
}

TEST_F(ChaosTest, GenerousDeadlineServesNormally) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  const RequestOutcome outcome =
      service.query(cloud, queries_, knn_params(), RequestOptions::within(10s));
  EXPECT_EQ(outcome.result.num_queries(), queries_.size());
  const ServiceStats stats = service.stats(cloud);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.requests, 1u);
}

TEST_F(ChaosTest, DeadlineMissSurfacesThroughTryGetToo) {
  SearchService service;
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  RequestOptions options;
  options.deadline = std::chrono::steady_clock::now();  // over by submit time
  SearchService::Ticket ticket = service.submit(cloud, queries_, knn_params(), options);
  ASSERT_TRUE(ticket.ready());
  try {
    (void)ticket.try_get();
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadline);
  }
}

// --- Watchdog / self-healing dispatch ----------------------------------------

namespace {

ServiceConfig watched_config(std::chrono::milliseconds stall_timeout = 60ms) {
  ServiceConfig config;
  config.stall_timeout = stall_timeout;
  return config;
}

}  // namespace

TEST_F(ChaosTest, WatchdogRestartsAStalledDispatcherAndTheTicketStillServes) {
  SearchService service(watched_config());
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  // Wedge the dispatcher mid-tick for far longer than the stall window.
  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 500ms;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.tick", config);

  SearchService::Ticket ticket = service.submit(cloud, queries_, knn_params());
  // The wedged thread holds the batch; the watchdog must restart the
  // dispatcher, and the stale thread must hand the batch back on waking.
  const RequestOutcome outcome = ticket.get();
  EXPECT_EQ(outcome.result.num_queries(), queries_.size());
  EXPECT_GE(service.health().dispatcher_restarts, 1u);
  EXPECT_TRUE(service.health().dispatcher_alive);
  EXPECT_EQ(service.health().pending_requests, 0u);
}

TEST_F(ChaosTest, WatchdogResolvesEveryInflightTicketAcrossClouds) {
  SearchService service(watched_config());
  CloudHandle a = service.register_cloud("tenant_a", points_, {});
  const std::vector<Vec3> other = make_cloud(CloudKind::kUniform, kCloudSize, kSeed + 4);
  CloudHandle b = service.register_cloud("tenant_b", other, {});

  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 400ms;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.tick", config);

  std::vector<SearchService::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(service.submit(i % 2 == 0 ? a : b, queries_, knn_params()));
  }
  // Never abandoned: every ticket resolves — served here (no deadline,
  // no drop), whatever mix of stale-thread serves and requeues occurred.
  for (SearchService::Ticket& ticket : tickets) {
    EXPECT_NO_THROW((void)ticket.get());
  }
  EXPECT_GE(service.health().dispatcher_restarts, 1u);
  EXPECT_EQ(service.health().pending_requests, 0u);
  EXPECT_EQ(service.stats().requests, 4u);
}

TEST_F(ChaosTest, WatchdogLeavesAnIdleServiceAlone) {
  SearchService service(watched_config(/*stall_timeout=*/40ms));
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  (void)service.query(cloud, queries_, knn_params());
  std::this_thread::sleep_for(200ms);  // idle >> stall window
  EXPECT_EQ(service.health().dispatcher_restarts, 0u);
  EXPECT_TRUE(service.health().dispatcher_alive);
}

TEST_F(ChaosTest, WatchdogLeavesHealthyTrafficAlone) {
  SearchService service(watched_config(/*stall_timeout=*/80ms));
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  const auto until = std::chrono::steady_clock::now() + 250ms;
  std::size_t served = 0;
  while (std::chrono::steady_clock::now() < until) {
    (void)service.query(cloud, queries_, knn_params());
    ++served;
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(service.health().dispatcher_restarts, 0u);
}

TEST_F(ChaosTest, RestartStampsAFreshSnapshotAndServesCorrectAnswers) {
  SearchService service(watched_config());
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  const RequestOutcome before = service.query(cloud, queries_, knn_params());

  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 400ms;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.tick", config);
  SearchService::Ticket stalled = service.submit(cloud, queries_, knn_params());
  const RequestOutcome after = stalled.get();
  ASSERT_GE(service.health().dispatcher_restarts, 1u);

  // The snapshot republished under the replacement's generation answers
  // identically.
  ASSERT_EQ(after.result.num_queries(), before.result.num_queries());
  for (std::size_t q = 0; q < after.result.num_queries(); ++q) {
    EXPECT_EQ(after.result.count(q), before.result.count(q)) << q;
  }
  // And a fresh request on the healed service too.
  EXPECT_NO_THROW((void)service.query(cloud, queries_, knn_params()));
}

TEST_F(ChaosTest, AColdMasterIsWarmedBeforeTheFirstSearch) {
  // Registered without a warmup, the master has never searched and its
  // index is unbuilt. The first dispatch warms it and republishes, so a
  // restart's republish shares the built index instead of building again,
  // and the first update refits it instead of building from scratch.
  SearchService service(watched_config());
  CloudHandle cloud = service.register_cloud("cold", points_, {});
  const NeighborResult expected = brute_force_knn(points_, queries_);
  rtnn::testing::expect_knn_identical(service.query(cloud, queries_, knn_params()).result,
                                      expected, "first answer");

  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 400ms;
  config.max_fires = 1;
  {
    ScopedFailpoint fp("service.dispatch.tick", config);
    const RequestOutcome after = service.submit(cloud, queries_, knn_params()).get();
    ASSERT_GE(service.health().dispatcher_restarts, 1u);
    rtnn::testing::expect_knn_identical(after.result, expected, "after the restart");
    EXPECT_EQ(after.report.time.bvh, 0.0) << "the republished clone must share the built index";
  }

  std::vector<Vec3> moved = points_;
  Pcg32 rng(kSeed + 9);
  for (Vec3& p : moved) p.x += 0.01f * typical_radius(CloudKind::kUniform) * rng.next_float();
  const ServiceStats before = service.stats(cloud);
  service.update_points(cloud, moved);
  const ServiceStats updated = service.stats(cloud);
  EXPECT_EQ(updated.report.accel_refits - before.report.accel_refits, 1u);
  EXPECT_EQ(updated.report.time.bvh, before.report.time.bvh) << "the update must refit, not build";
}

TEST_F(ChaosTest, RestartInsideADemandBuildNeverSharesTheBuiltSnapshot) {
  // The first dispatcher wedges inside a lazily registered cloud's demand
  // build; the watchdog replaces it, and the replacement's request waits
  // on the same build. The snapshot that build publishes belongs to one
  // dispatcher generation only, so the two never search one backend, and
  // both requests serve exact rows. One wedge costs one restart: the
  // replacement, blocked behind the wedged build, is not restarted too,
  // and the cloud is built once. The stall window must comfortably exceed
  // the replacement's legitimate first batch (the accel build plus the
  // launch: ~120 ms under ThreadSanitizer, up to ~400 ms in a
  // single-threaded AddressSanitizer Debug build), or the watchdog
  // restarts it as stalled by definition; the wedge outlasts the window
  // several times.
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 20'000, kSeed);
  const std::vector<Vec3> queries(points.begin(), points.begin() + 2'000);
  SearchService service(watched_config(/*stall_timeout=*/500ms));
  CloudConfig lazy;
  lazy.build_on_register = false;
  CloudHandle cloud = service.register_cloud("lazy", points, lazy);

  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 2s;
  config.max_fires = 1;
  ScopedFailpoint fp("service.publish", config);
  SearchService::Ticket first = service.submit(cloud, queries, knn_params());
  ASSERT_TRUE(eventually([&] { return service.health().dispatcher_restarts >= 1; }));
  SearchService::Ticket second = service.submit(cloud, queries, knn_params());

  const NeighborResult expected = brute_force_knn(points, queries);
  rtnn::testing::expect_knn_identical(first.get().result, expected, "wedged dispatcher");
  rtnn::testing::expect_knn_identical(second.get().result, expected, "replacement");
  EXPECT_EQ(fp.fires(), 1u);
  EXPECT_EQ(service.health().pending_requests, 0u);
  EXPECT_EQ(service.health().dispatcher_restarts, 1u);
  EXPECT_EQ(service.stats(cloud).builds, 1u);
}

TEST_F(ChaosTest, ShutdownWhileAStaleDispatcherHoldsTheBatchSettlesItAsShutdown) {
  SearchService service(watched_config(/*stall_timeout=*/40ms));
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 400ms;
  config.max_fires = 1;
  ScopedFailpoint fp("service.dispatch.tick", config);

  SearchService::Ticket ticket = service.submit(cloud, queries_, knn_params());
  ASSERT_TRUE(eventually([&] { return service.health().dispatcher_restarts >= 1; }));
  // The replacement is idle and the stale dispatcher still holds the
  // batch: shutdown closes the queue, so its hand-back is refused and the
  // ticket settles as kShutdown when it wakes.
  service.shutdown();
  ASSERT_TRUE(ticket.ready());
  try {
    (void)ticket.get();
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kShutdown);
  }
  const ServiceStats stats = service.stats(cloud);
  EXPECT_EQ(stats.requests, 1u);  // admitted: counted, though never served
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(service.health().pending_requests, 0u);
}

TEST_F(ChaosTest, HealthSnapshotOnAQuietService) {
  SearchService service;  // watchdog off: liveness still reported
  CloudHandle cloud = service.register_cloud("chaos", points_, {});
  (void)service.query(cloud, queries_, knn_params());
  const ServiceHealth health = service.health();
  EXPECT_TRUE(health.healthy());
  EXPECT_TRUE(health.dispatcher_alive);
  EXPECT_FALSE(health.writer_stalled);
  EXPECT_EQ(health.dispatcher_restarts, 0u);
  EXPECT_EQ(health.queue_depth, 0u);
  EXPECT_EQ(health.pending_requests, 0u);
}

TEST_F(ChaosTest, WedgedWriterSurfacesInHealth) {
  SearchService service(watched_config(/*stall_timeout=*/40ms));
  CloudHandle cloud = service.register_cloud("chaos", points_, {});

  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 300ms;
  config.max_fires = 1;
  ScopedFailpoint fp("service.publish", config);
  std::vector<Vec3> moved = points_;
  for (Vec3& p : moved) p.y += 0.05f;
  std::thread writer([&] { service.update_points(cloud, moved); });

  bool observed_stall = false;
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < until) {
    if (service.health().writer_stalled) {
      observed_stall = true;
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  writer.join();
  EXPECT_TRUE(observed_stall) << "a wedged writer must show in health()";
  EXPECT_FALSE(service.health().writer_stalled) << "and clear once it returns";
  // Readers were never blocked by the wedged writer.
  EXPECT_NO_THROW((void)service.query(cloud, queries_, knn_params()));
}

// --- Seeded chaos soak -------------------------------------------------------

TEST_F(ChaosTest, SeededLaunchChaosSoakResolvesEveryTicketWithExactBookkeeping) {
  SearchService service;
  CloudHandle a = service.register_cloud("tenant_a", points_, tiled_cloud_config());
  const std::vector<Vec3> other = make_cloud(CloudKind::kUniform, kCloudSize, kSeed + 5);
  CloudHandle b = service.register_cloud("tenant_b", other, {});
  const NeighborResult expected_a = brute_force_knn(points_, queries_);
  const NeighborResult expected_b = brute_force_knn(other, queries_);

  FailConfig config;
  config.probability = 0.25;
  config.seed = 20260809;  // deterministic schedule: reruns replay exactly
  ScopedFailpoint fp("service.dispatch.launch", config);

  constexpr int kRequests = 40;
  std::vector<SearchService::Ticket> tickets;
  tickets.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    tickets.push_back(service.submit(i % 2 == 0 ? a : b, queries_, knn_params(),
                                     RequestOptions::within(30s)));
  }
  std::size_t served = 0, backend_failures = 0;
  for (int i = 0; i < kRequests; ++i) {
    try {
      const RequestOutcome outcome = tickets[static_cast<std::size_t>(i)].get();
      ++served;
      // A fault never leaks into a group it did not hit: served is exact.
      rtnn::testing::expect_knn_identical(outcome.result,
                                          i % 2 == 0 ? expected_a : expected_b,
                                          "request " + std::to_string(i));
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.reason(), RejectReason::kBackend);
      EXPECT_NE(std::string(e.what()).find("service.dispatch.launch"), std::string::npos);
      ++backend_failures;
    }
  }
  // Every ticket resolved, one way or the other; each fire failed at
  // least its own group's requests.
  EXPECT_EQ(served + backend_failures, static_cast<std::size_t>(kRequests));
  EXPECT_GT(fp.fires(), 0u) << "the soak must actually have injected faults";
  EXPECT_GE(backend_failures, fp.fires());

  // Exact bookkeeping across the chaos: nothing pending, nothing leaked;
  // failed requests count, their rows do not.
  const ServiceHealth health = service.health();
  EXPECT_EQ(health.pending_requests, 0u);
  EXPECT_EQ(health.queue_depth, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(service.stats(a).requests, static_cast<std::uint64_t>(kRequests / 2));
  EXPECT_EQ(service.stats(b).requests, static_cast<std::uint64_t>(kRequests / 2));
  EXPECT_EQ(stats.queries, served * queries_.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.deadline_misses, 0u);
}

TEST_F(ChaosTest, SeededTickChaosWithWatchdogResolvesEverything) {
  SearchService service(watched_config(/*stall_timeout=*/50ms));
  CloudHandle cloud = service.register_cloud("chaos", points_, {});

  // Short probabilistic wedges around the stall threshold: some ticks
  // stall long enough to trip the watchdog, some don't.
  FailConfig config;
  config.action = Action::kDelay;
  config.delay = 90ms;
  config.probability = 0.3;
  config.seed = 7;
  ScopedFailpoint fp("service.dispatch.tick", config);

  constexpr int kRequests = 12;
  std::vector<SearchService::Ticket> tickets;
  tickets.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    tickets.push_back(service.submit(cloud, queries_, knn_params()));
    std::this_thread::sleep_for(5ms);
  }
  for (SearchService::Ticket& ticket : tickets) {
    EXPECT_NO_THROW((void)ticket.get());  // no deadline, no drop: all serve
  }
  EXPECT_EQ(service.health().pending_requests, 0u);
  EXPECT_EQ(service.stats().requests, static_cast<std::uint64_t>(kRequests));
}
