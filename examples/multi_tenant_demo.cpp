// Multi-tenant serving demo — the cloud registry end to end.
//
// A miniature multi-tenant deployment of the SearchService: several named
// clouds register with different per-cloud policies (a whole-cloud
// tenant, a Morton-tiled one, a lazily-built one, and one behind
// admission control), client threads address them through CloudHandles,
// and one tenant is dropped mid-run to show the typed rejection its
// leftover traffic gets. The walkthrough exercises, in order:
//
//   1. register_cloud() with per-tenant CloudConfig (tiling, lazy
//      build, admission) under one ServiceConfig residency cap,
//   2. serving off the tiled tenant — same results, same API, the tiles
//      are invisible to the caller,
//   3. overload against the admission-gated tenant: the excess is shed
//      at submit() (Ticket::get() throws ServiceError / kAdmission)
//      instead of queueing behind everyone else,
//   4. drop_cloud() mid-traffic: pending requests reject with kShutdown,
//      the other tenants never notice,
//   5. per-tenant stats() vs the service-wide aggregate.
//
//   ./multi_tenant_demo [points_per_tenant] [clients] [requests_per_client]
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/timing.hpp"
#include "datasets/uniform.hpp"
#include "service/service.hpp"
#include "serving_traffic.hpp"

namespace {

constexpr std::uint32_t kNeighbors = 8;

using rtnn::bench_traffic::percentile;
using rtnn::bench_traffic::request_queries;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t tenant_points =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000;
  const int clients = argc > 2 ? std::atoi(argv[2]) : 4;
  const int requests_per_client = argc > 3 ? std::atoi(argv[3]) : 40;

  rtnn::SearchParams params;
  params.mode = rtnn::SearchMode::kKnn;
  params.k = kNeighbors;
  params.radius = static_cast<float>(
      std::cbrt(2.0 * kNeighbors * 3.0 /
                (4.0 * 3.14159265 * static_cast<double>(tenant_points))));
  params.opts = rtnn::OptimizationFlags::none();

  // --- 1. The registry: four tenants, four policies -------------------------

  rtnn::service::ServiceConfig config;
  config.max_resident_clouds = 3;  // the coldest index gets evicted
  rtnn::service::SearchService service(config);

  auto tenant_cloud = [&](std::uint64_t seed) {
    return rtnn::data::uniform_box(tenant_points, {{0, 0, 0}, {1, 1, 1}}, seed);
  };
  const rtnn::data::PointCloud city = tenant_cloud(1);
  const rtnn::data::PointCloud park = tenant_cloud(2);
  const rtnn::data::PointCloud pier = tenant_cloud(3);
  const rtnn::data::PointCloud mall = tenant_cloud(4);

  // A plain tenant: eager build, no tiling, no admission.
  const rtnn::service::CloudHandle city_h = service.register_cloud("city", city);

  // A tiled tenant: the index is a top-level tree over Morton-contiguous
  // tiles, each built on its first routed query; an update would refit
  // only the tiles its motion touched. Nothing changes for the caller.
  rtnn::service::CloudConfig tiled;
  tiled.tile_threshold = tenant_points / 4;
  const rtnn::service::CloudHandle park_h = service.register_cloud("park", park, tiled);

  // A lazy tenant: registration stores the points; the first request
  // pays the build (and the LRU cap may evict it again when cold).
  rtnn::service::CloudConfig lazy;
  lazy.build_on_register = false;
  const rtnn::service::CloudHandle pier_h = service.register_cloud("pier", pier, lazy);

  // An admission-gated tenant: at most 4 pending requests; the rest are
  // shed at the door instead of queueing.
  rtnn::service::CloudConfig gated;
  gated.admission.max_queue_depth = 4;
  const rtnn::service::CloudHandle mall_h = service.register_cloud("mall", mall, gated);

  std::cout << "registered tenants:";
  for (const std::string& name : service.list_clouds()) std::cout << ' ' << name;
  std::cout << "  (resident indexes: " << service.resident_clouds() << ")\n";

  // --- 2..4. Mixed traffic against every tenant -----------------------------

  const std::vector<rtnn::service::CloudHandle> handles{city_h, park_h, pier_h, mall_h};
  const std::vector<const rtnn::data::PointCloud*> clouds{&city, &park, &pier, &mall};

  std::vector<double> latencies;
  std::mutex latencies_mutex;
  std::atomic<std::uint64_t> served{0}, shed{0}, rejected{0};
  rtnn::Timer wall;
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (int r = 0; r < requests_per_client; ++r) {
        const auto t = static_cast<std::size_t>((c + r) % 4);
        rtnn::Timer latency;
        try {
          auto ticket = service.submit(handles[t], request_queries(*clouds[t], c, r),
                                       params);
          (void)ticket.get();
          served.fetch_add(1, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(latencies_mutex);
          latencies.push_back(latency.elapsed());
        } catch (const rtnn::service::ServiceError& e) {
          // The typed rejection says which door refused (the error-state
          // contract in service.hpp).
          switch (e.reason()) {
            case rtnn::service::RejectReason::kAdmission:
              shed.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              rejected.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        }
      }
    });
  }

  // Mid-run, retire one tenant: whatever it has pending rejects with
  // kShutdown; the other tenants keep serving.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.drop_cloud("pier");
  for (auto& w : workers) w.join();
  const double elapsed = wall.elapsed();

  std::sort(latencies.begin(), latencies.end());
  std::cout << "served " << served.load() << " requests in " << elapsed << " s ("
            << shed.load() << " shed by admission, " << rejected.load()
            << " rejected by the dropped tenant)\n";
  std::cout << "latency p50 " << percentile(latencies, 0.5) * 1e3 << " ms, p99 "
            << percentile(latencies, 0.99) * 1e3 << " ms\n";

  // --- 5. Per-tenant stats vs the aggregate ---------------------------------

  const rtnn::service::ServiceStats total = service.stats();
  std::cout << "tenants after the run (resident indexes: " << service.resident_clouds()
            << "):\n";
  for (const std::string& name : service.list_clouds()) {
    const rtnn::service::ServiceStats stats = service.stats(service.cloud(name));
    std::cout << "  " << name << ": " << stats.requests << " requests, "
              << stats.queries << " rows, " << stats.shed << " shed, "
              << stats.builds << " builds, " << stats.evictions << " evictions\n";
  }
  std::cout << "service-wide: " << total.requests << " requests in " << total.batches
            << " batched launches, " << total.builds << " builds, " << total.evictions
            << " evictions, search time " << total.report.time.search << " s\n";
  return 0;
}
