// Serving demo — concurrent clients over a drifting point cloud.
//
// A miniature deployment of the SearchService: one writer thread streams
// frames of a drifting cloud through update_points() (each publish runs
// the refit-vs-rebuild policy off the read path), while several client
// threads fire small KNN requests through the async submit()/wait() API.
// The dispatcher coalesces whatever is in flight each tick into one
// batched launch, so the per-request cost is a slice of a shared
// pipeline pass instead of a private index build.
//
// Printed at the end: served volume, client-observed latency percentiles,
// snapshot versions published, and the service's exactly-summed aggregate
// report (batches, refits vs rebuilds, time breakdown).
//
//   ./serving_demo [num_points] [clients] [requests_per_client]
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "core/timing.hpp"
#include "datasets/motion.hpp"
#include "datasets/uniform.hpp"
#include "service/service.hpp"
#include "serving_traffic.hpp"

namespace {

constexpr std::uint32_t kNeighbors = 8;

using rtnn::bench_traffic::percentile;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_points =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000;
  const int clients = argc > 2 ? std::atoi(argv[2]) : 8;
  const int requests_per_client = argc > 3 ? std::atoi(argv[3]) : 50;

  const rtnn::data::PointCloud cloud =
      rtnn::data::uniform_box(num_points, {{0, 0, 0}, {1, 1, 1}}, 20260730);

  rtnn::SearchParams params;
  params.mode = rtnn::SearchMode::kKnn;
  params.k = kNeighbors;
  params.radius = static_cast<float>(std::cbrt(
      2.0 * kNeighbors * 3.0 / (4.0 * 3.14159265 * static_cast<double>(num_points))));
  params.opts = rtnn::OptimizationFlags::none();

  std::cout << "serving " << num_points << " drifting points to " << clients
            << " clients x " << requests_per_client << " requests\n";

  rtnn::service::SearchService service;
  const rtnn::service::CloudHandle handle = service.register_cloud("demo", cloud);

  // Writer: a drift frame every few milliseconds until the clients are
  // done. Readers keep their pinned snapshot while each publish builds.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    rtnn::data::DriftParams drift;
    drift.velocity = 0.1f * params.radius;
    rtnn::data::DriftMotion motion(cloud, drift);
    while (!done.load(std::memory_order_relaxed)) {
      service.update_points(handle, motion.step());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Clients: closed-loop async requests of mixed sizes; each records its
  // observed submit→result latency.
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> total_rows{0};
  rtnn::Timer wall;
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (int r = 0; r < requests_per_client; ++r) {
        const std::span<const rtnn::Vec3> queries =
            rtnn::bench_traffic::request_queries(cloud, c, r);
        rtnn::Timer latency;
        auto ticket = service.submit(handle, queries, params);
        const rtnn::service::RequestOutcome outcome = ticket.get();
        latencies[static_cast<std::size_t>(c)].push_back(latency.elapsed());
        total_rows.fetch_add(outcome.result.num_queries(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = wall.elapsed();
  done.store(true, std::memory_order_relaxed);
  writer.join();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());

  const rtnn::service::ServiceStats stats = service.stats();
  std::cout << "  served " << stats.requests << " requests (" << total_rows.load()
            << " query rows) in " << elapsed << " s — "
            << static_cast<double>(total_rows.load()) / elapsed << " queries/s\n";
  std::cout << "  latency p50 " << percentile(all, 0.5) * 1e3 << " ms, p90 "
            << percentile(all, 0.9) * 1e3 << " ms, p99 "
            << percentile(all, 0.99) * 1e3 << " ms\n";
  std::cout << "  coalescing: " << stats.batches << " batched launches ("
            << (stats.batches
                    ? static_cast<double>(stats.requests) /
                          static_cast<double>(stats.batches)
                    : 0.0)
            << " requests/batch)\n";
  std::cout << "  snapshots: " << stats.updates << " published (version "
            << service.snapshot_version(handle) << "), lifecycle "
            << stats.report.accel_refits << " refits + "
            << stats.report.accel_rebuilds << " rebuilds, sah inflation "
            << stats.report.sah_inflation << "\n";
  std::cout << "  aggregate time: bvh " << stats.report.time.bvh << " s, refit "
            << stats.report.time.refit << " s, search " << stats.report.time.search
            << " s\n";
  return 0;
}
