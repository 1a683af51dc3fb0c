// Tiled + multi-tenant serving benches.
//
// Not a paper figure. Two questions about the multi-tenant registry at
// the fixed 100k-point serving scale (absolute size, like the serving.*
// family — the object is a ratio between two configurations of the same
// service, comparable across runs regardless of --scale):
//
//   tiled        the same cloud served whole vs as a two-level index over
//                ~8 Morton-contiguous tiles (CloudConfig::tile_threshold),
//                under the coherent closed-loop schedule. One launch walks
//                both levels, so the rays are the same; the question is
//                what the top-level tree and the per-tile walks cost.
//   multi_tenant four tenants behind one dispatcher at ~2x the measured
//                service capacity: admission OFF queues the overload (p99
//                grows with the backlog), admission ON sheds it at the
//                door (AdmissionOptions::max_queue_depth) — the p99 of
//                the *admitted* requests is the SLO the shedding buys,
//                shed_share is what it costs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "core/timing.hpp"
#include "datasets/uniform.hpp"
#include "rtnn/rtnn.hpp"
#include "rtnn/tile_plan.hpp"
#include "serving_traffic.hpp"
#include "service/service.hpp"

using namespace rtnn;

namespace {

constexpr std::size_t kServingPoints = 100'000;
constexpr std::uint32_t kServingK = 8;
constexpr int kRequestsPerClient = 6;

/// KNN params sized for ~2K expected neighbors at population n (the
/// serving.* convention).
SearchParams serving_params(std::size_t n) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.k = kServingK;
  params.radius = static_cast<float>(
      std::cbrt(2.0 * kServingK * 3.0 / (4.0 * 3.14159265 * static_cast<double>(n))));
  params.opts = OptimizationFlags::none();
  return params;
}

using bench_traffic::coherent_request_queries;
using bench_traffic::percentile;
using bench_traffic::request_queries;

/// Per-stage seconds under the `stage.` prefix tools/bench_compare.py
/// breaks serving deltas down by, plus the tenant's exact traversal work
/// summed over every run of the case.
void emit_stage_metrics(rtnn::bench::CaseContext& ctx, const std::string& prefix,
                        const service::ServiceStats& stats) {
  const TimeBreakdown& time = stats.report.time;
  ctx.metric(prefix + "stage.data", time.data, "s");
  ctx.metric(prefix + "stage.opt", time.opt, "s");
  ctx.metric(prefix + "stage.bvh", time.bvh, "s");
  ctx.metric(prefix + "stage.fs", time.first_search, "s");
  ctx.metric(prefix + "stage.search", time.search, "s");
  ctx.metric(prefix + "stage.launches", static_cast<double>(stats.batches));
  const rt::LaunchStats& work = stats.report.stats;
  ctx.metric(prefix + "rays", static_cast<double>(work.rays));
  ctx.metric(prefix + "node_visits", static_cast<double>(work.node_visits));
  ctx.metric(prefix + "is_calls", static_cast<double>(work.is_calls));
}

}  // namespace

RTNN_BENCH_CASE(serving_tiled, "serving.tiled.100k",
                "Tiled cloud vs whole cloud — the two-level index through the service",
                "the same rays and answers as the whole cloud; tiles add a "
                "top-level walk and buy per-tile updates and lazy builds",
                "absolute 100k points; client count = --threads") {
  const int clients = std::max(1, num_threads());
  const data::PointCloud cloud = data::uniform_box(
      kServingPoints, {{0, 0, 0}, {1, 1, 1}}, bench::mix_seed(ctx.seed(), 821));
  const SearchParams params = serving_params(cloud.size());
  const auto total_queries = static_cast<double>(
      bench_traffic::total_coherent_queries(cloud, clients, kRequestsPerClient));

  // The identical coherent closed-loop schedule drives both tenants.
  auto closed_loop = [&](service::SearchService& service,
                         const service::CloudHandle& handle) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          (void)service.query(handle, coherent_request_queries(cloud, c, r), params);
        }
      });
    }
    for (auto& w : workers) w.join();
  };

  // Whole cloud: one monolithic index serves every query.
  service::SearchService whole_service;
  const service::CloudHandle whole = whole_service.register_cloud("whole", cloud);
  const double whole_s = ctx.time("whole.100k", [&] { closed_loop(whole_service, whole); },
                                  {.work_items = total_queries});

  // Tiled: ~8 lazy Morton-contiguous tiles behind the same service API.
  // Metrics use the `tiles.` prefix: `tiled.` is dynamic.tiled's.
  service::CloudConfig tiled_config;
  tiled_config.tile_threshold = kServingPoints / 8;
  const std::uint32_t tiles = plan_tile_count(
      kServingPoints, tiled_config.tile_threshold, tiled_config.max_tiles);
  service::SearchService tiled_service;
  const service::CloudHandle tiled =
      tiled_service.register_cloud("tiled", cloud, tiled_config);
  const double tiled_s = ctx.time("tiles.100k", [&] { closed_loop(tiled_service, tiled); },
                                  {.work_items = total_queries});

  const double speedup = whole_s / tiled_s;
  ctx.metric("clients", clients);
  ctx.metric("tiles", tiles);
  ctx.metric("speedup.100k", speedup, "x");
  emit_stage_metrics(ctx, "whole.", whole_service.stats());
  emit_stage_metrics(ctx, "tiles.", tiled_service.stats());
  std::printf(
      "%8s %9s %8s  %14s %14s %9s\n%8zu %9d %8u  %14.5f %14.5f %8.2fx\n",
      "points", "clients", "tiles", "whole[s]", "tiled[s]", "speedup",
      kServingPoints, clients, tiles, whole_s, tiled_s, speedup);
}

RTNN_BENCH_CASE(serving_multi_tenant, "serving.multi_tenant.100k",
                "Multi-tenant overload — admission shedding vs unbounded queueing",
                "arrivals far past capacity: an unbounded queue grows for the "
                "whole run (p99 = backlog), while a per-tenant queue-depth cap "
                "sheds the excess at submit() and holds the admitted p99 flat",
                "absolute 4x25k points; single submitter at a fixed rate") {
  constexpr int kTenants = 4;
  constexpr int kRequests = 48;
  constexpr std::size_t kTenantPoints = kServingPoints / kTenants;

  std::vector<data::PointCloud> clouds;
  for (int t = 0; t < kTenants; ++t) {
    clouds.push_back(data::uniform_box(kTenantPoints, {{0, 0, 0}, {1, 1, 1}},
                                       bench::mix_seed(ctx.seed(), 831 + t)));
  }
  const SearchParams params = serving_params(kTenantPoints);

  /// One open-loop overload run: round-robin submits across the tenants
  /// at `period_s`, FIFO collector stamps completions; tickets then sort
  /// into served latencies vs shed count.
  struct OverloadResult {
    std::vector<double> served;  // ascending latencies of served requests
    std::size_t shed = 0;
  };
  auto overload_run = [&](service::SearchService& service,
                          const std::vector<service::CloudHandle>& handles,
                          double period_s) {
    OverloadResult out;
    std::vector<service::SearchService::Ticket> tickets(kRequests);
    std::vector<Timer> stamps(kRequests);
    std::vector<double> latencies(kRequests, 0.0);
    std::atomic<int> submitted{0};
    std::thread collector([&] {
      for (int r = 0; r < kRequests; ++r) {
        while (submitted.load(std::memory_order_acquire) <= r) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        tickets[static_cast<std::size_t>(r)].wait();
        latencies[static_cast<std::size_t>(r)] =
            stamps[static_cast<std::size_t>(r)].elapsed();
      }
    });
    for (int r = 0; r < kRequests; ++r) {
      const auto t = static_cast<std::size_t>(r % kTenants);
      Timer arrival;
      stamps[static_cast<std::size_t>(r)].reset();
      tickets[static_cast<std::size_t>(r)] =
          service.submit(handles[t], request_queries(clouds[t], r % 3, r), params);
      submitted.fetch_add(1, std::memory_order_release);
      const double remaining = period_s - arrival.elapsed();
      if (remaining > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
      }
    }
    collector.join();
    for (int r = 0; r < kRequests; ++r) {
      try {
        (void)tickets[static_cast<std::size_t>(r)].get();
        out.served.push_back(latencies[static_cast<std::size_t>(r)]);
      } catch (const service::ServiceError&) {
        ++out.shed;  // rejected at the door, never queued
      }
    }
    std::sort(out.served.begin(), out.served.end());
    return out;
  };

  auto register_tenants = [&](service::SearchService& service,
                              const service::CloudConfig& config) {
    std::vector<service::CloudHandle> handles;
    for (int t = 0; t < kTenants; ++t) {
      handles.push_back(
          service.register_cloud("tenant" + std::to_string(t), clouds[t], config));
    }
    return handles;
  };

  // Calibrate overload off this machine: mean service time of a short
  // solo burst (first query excluded — it pays the one-time index build),
  // then arrivals at 8x that rate. Coalescing makes the *batched*
  // capacity a few times the solo rate, so 8x lands well past it —
  // without admission the backlog grows for the whole run.
  service::SearchService queued_service;
  const std::vector<service::CloudHandle> queued_handles =
      register_tenants(queued_service, {});
  (void)queued_service.query(queued_handles[0], request_queries(clouds[0], 2, 0), params);
  Timer calibrate;
  for (int r = 0; r < 8; ++r) {
    (void)queued_service.query(queued_handles[0], request_queries(clouds[0], 1, r),
                               params);
  }
  const double period_s = calibrate.elapsed() / 8.0 / 8.0;

  // Admission OFF: every request queues; the backlog grows for the whole
  // run and the tail latency with it.
  OverloadResult queued;
  (void)ctx.time(
      "queued.4x25k",
      [&] { queued = overload_run(queued_service, queued_handles, period_s); },
      {.work_items = static_cast<double>(kRequests)});

  // Admission ON: each tenant caps its pending requests; the excess is
  // shed at submit() with RejectReason::kAdmission.
  service::CloudConfig admitted_config;
  admitted_config.admission.max_queue_depth = 2;
  service::SearchService admitted_service;
  const std::vector<service::CloudHandle> admitted_handles =
      register_tenants(admitted_service, admitted_config);
  OverloadResult admitted;
  (void)ctx.time(
      "admitted.4x25k",
      [&] { admitted = overload_run(admitted_service, admitted_handles, period_s); },
      {.work_items = static_cast<double>(kRequests)});

  const double queued_p99 = percentile(queued.served, 0.99);
  const double admitted_p99 = percentile(admitted.served, 0.99);
  const double shed_share =
      static_cast<double>(admitted.shed) / static_cast<double>(kRequests);
  ctx.metric("arrival_period_ms", period_s * 1e3, "ms");
  ctx.metric("queued_p50_ms", percentile(queued.served, 0.50) * 1e3, "ms");
  ctx.metric("queued_p99_ms", queued_p99 * 1e3, "ms");
  ctx.metric("admitted_p50_ms", percentile(admitted.served, 0.50) * 1e3, "ms");
  ctx.metric("admitted_p99_ms", admitted_p99 * 1e3, "ms");
  ctx.metric("shed_share", shed_share);
  ctx.metric("p99_ratio", admitted_p99 > 0.0 ? queued_p99 / admitted_p99 : 0.0, "x");
  std::printf(
      "%10s %14s %14s %14s %9s\n%9.3fms %12.3fms %12.3fms %13.1f%% %8.1fx\n",
      "period", "queued p99", "admitted p99", "shed", "p99 ratio", period_s * 1e3,
      queued_p99 * 1e3, admitted_p99 * 1e3, 100.0 * shed_share,
      admitted_p99 > 0.0 ? queued_p99 / admitted_p99 : 0.0);
}
