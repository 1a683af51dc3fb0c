// Serving benches: the concurrent SearchService vs per-request search().
//
// Not a paper figure. The paper's pipeline is evaluated on monolithic
// query arrays; a serving deployment sees the same total volume as many
// small in-flight requests from concurrent clients. These cases measure
// what the service's coalescing buys (and costs) at a fixed 100k-point
// cloud (absolute size, like the dynamic.* family — the object is the
// batched-vs-sequential ratio, comparable across runs regardless of
// --scale):
//
//   closed_loop  C client threads, each submit→wait→next over mixed
//                request sizes (16/64/256 queries). `batched.100k` drives
//                the service (one coalesced launch per bin per
//                tick); `sequential.100k` is the pre-service behavior —
//                a per-request NeighborSearch::search() loop over one
//                kept accel, one launch per request.
//   open_loop    one client submitting at a fixed arrival rate while a
//                collector drains tickets: per-request latency
//                percentiles (p50/p90/p99) under batching delay.
//
// The client count C is rtnn_bench's --threads knob (default: RTNN_THREADS
// or the OpenMP default) — sweep it from the CLI; reports record the value
// in options.threads and bench_compare warns when two reports disagree.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "serving_traffic.hpp"
#include "datasets/uniform.hpp"
#include "rtnn/rtnn.hpp"
#include "service/service.hpp"

using namespace rtnn;

namespace {

constexpr std::size_t kServingPoints = 100'000;
constexpr std::uint32_t kServingK = 8;
constexpr int kRequestsPerClient = 6;

/// KNN params sized for ~2K expected neighbors at population n (the
/// dynamic.* convention); the naive launch path — serving traffic is many
/// small requests, where per-request scheduling cannot pay for itself.
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

/// Per-stage seconds from the service's aggregate report, under the
/// `stage.` prefix tools/bench_compare.py breaks serving deltas down by
/// (reorder cost lands in stage.opt, the traversal win in stage.search).
void emit_stage_metrics(rtnn::bench::CaseContext& ctx, const std::string& prefix,
                        const service::ServiceStats& stats) {
  const TimeBreakdown& time = stats.report.time;
  ctx.metric(prefix + "stage.data", time.data, "s");
  ctx.metric(prefix + "stage.opt", time.opt, "s");
  ctx.metric(prefix + "stage.bvh", time.bvh, "s");
  ctx.metric(prefix + "stage.fs", time.first_search, "s");
  ctx.metric(prefix + "stage.search", time.search, "s");
  ctx.metric(prefix + "stage.launches", static_cast<double>(stats.batches));
}

}  // namespace

RTNN_BENCH_CASE(serving_closed_loop, "serving.closed_loop.100k",
                "Serving closed loop — batched submit vs per-request search()",
                "coalescing in-flight requests into one launch per tick "
                "amortizes the per-call launch and pipeline overhead",
                "absolute 100k points; client count = --threads") {
  const int clients = std::max(1, num_threads());
  const data::PointCloud cloud = data::uniform_box(
      kServingPoints, {{0, 0, 0}, {1, 1, 1}}, bench::mix_seed(ctx.seed(), 811));
  const SearchParams params = serving_params(cloud.size());
  const auto total_queries = static_cast<double>(
      bench_traffic::total_request_queries(cloud, clients, kRequestsPerClient));

  // The service path: C concurrent clients in closed loop. The service
  // (and its warm snapshot) persists across samples, as a deployment's
  // would; each invocation replays the full request schedule.
  service::SearchService service;
  const service::CloudHandle handle = service.register_cloud("bench", cloud);
  const double batched_s = ctx.time(
      "batched.100k",
      [&] {
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) {
          workers.emplace_back([&, c] {
            for (int r = 0; r < kRequestsPerClient; ++r) {
              (void)service.query(handle, request_queries(cloud, c, r), params);
            }
          });
        }
        for (auto& w : workers) w.join();
      },
      {.work_items = total_queries});
  const service::ServiceStats stats = service.stats();

  // The pre-service behavior: the same request stream, one search() per
  // request. One searcher: the first call builds, the rest reuse its accel.
  NeighborSearch sequential;
  sequential.set_points(cloud);
  const double sequential_s = ctx.time(
      "sequential.100k",
      [&] {
        for (int c = 0; c < clients; ++c) {
          for (int r = 0; r < kRequestsPerClient; ++r) {
            (void)sequential.search(request_queries(cloud, c, r), params);
          }
        }
      },
      {.work_items = total_queries});

  const double speedup = sequential_s / batched_s;
  ctx.metric("clients", clients);
  ctx.metric("speedup.100k", speedup, "x");
  ctx.metric("requests_per_batch",
             stats.batches ? static_cast<double>(stats.requests) /
                                 static_cast<double>(stats.batches)
                           : 0.0);
  emit_stage_metrics(ctx, "", stats);
  std::printf(
      "%8s %9s  %14s %14s %9s %14s\n"
      "%8zu %9d  %14.5f %14.5f %8.2fx %14.0f\n",
      "points", "clients", "batched[s]", "sequential[s]", "speedup", "queries/s",
      kServingPoints, clients, batched_s, sequential_s, speedup,
      total_queries / batched_s);
}

RTNN_BENCH_CASE(serving_coherent, "serving.coherent.100k",
                "Serving coherent traffic — batch optimizer vs arrival-order dispatch",
                "the paper's query reorganization over the *merged* cross-request "
                "set: Morton reorder + coincident-query dedup; duplicate-heavy "
                "lidar-slice traffic makes the win grow with the client count",
                "absolute 100k points; client counts 2 and max(2, --threads)") {
  const data::PointCloud cloud = data::uniform_box(
      kServingPoints, {{0, 0, 0}, {1, 1, 1}}, bench::mix_seed(ctx.seed(), 813));
  const SearchParams params = serving_params(cloud.size());

  std::printf("%8s %14s %14s %9s %9s\n", "clients", "optimized[s]", "arrival[s]",
              "speedup", "dedup");

  std::vector<int> sweep{2, std::max(2, num_threads())};
  if (sweep[1] == sweep[0]) sweep.pop_back();
  for (const int clients : sweep) {
    const auto total_queries = static_cast<double>(bench_traffic::total_coherent_queries(
        cloud, clients, kRequestsPerClient));
    const std::string tag = ".c" + std::to_string(clients);

    // The same coherent request schedule drives both configurations.
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

    // Optimizer on (the default): merged Morton reorder + coincident
    // dedup + homogeneous bins.
    service::SearchService optimized;
    const service::CloudHandle on = optimized.register_cloud("bench", cloud);
    const double optimized_s = ctx.time(
        "batched" + tag, [&] { closed_loop(optimized, on); }, {.work_items = total_queries});
    const service::ServiceStats on_stats = optimized.stats();

    // Optimizer off: the same bins in arrival order, no reorder or dedup.
    service::CloudConfig arrival_config;
    arrival_config.batch_reorder = false;
    service::SearchService arrival;
    const service::CloudHandle off = arrival.register_cloud("bench", cloud, arrival_config);
    const double arrival_s = ctx.time(
        "arrival" + tag, [&] { closed_loop(arrival, off); }, {.work_items = total_queries});

    const double speedup = arrival_s / optimized_s;
    const double dedup_share =
        on_stats.queries ? static_cast<double>(on_stats.report.queries_deduped) /
                               static_cast<double>(on_stats.queries)
                         : 0.0;
    ctx.metric("speedup" + tag, speedup, "x");
    ctx.metric("dedup_share" + tag, dedup_share);
    ctx.metric("bins" + tag, static_cast<double>(on_stats.report.batch_bins));
    if (clients == sweep.back()) {
      emit_stage_metrics(ctx, "on.", on_stats);
      emit_stage_metrics(ctx, "off.", arrival.stats());
    }
    std::printf("%8d %14.5f %14.5f %8.2fx %8.1f%%\n", clients, optimized_s, arrival_s,
                speedup, 100.0 * dedup_share);
  }
}

RTNN_BENCH_CASE(serving_open_loop, "serving.open_loop.100k",
                "Serving open loop — request latency under a fixed arrival rate",
                "batching trades a bounded coalescing delay (the tick) for "
                "amortized launches; the percentiles price that trade",
                "absolute 100k points; single submitter, FIFO collector") {
  const data::PointCloud cloud = data::uniform_box(
      kServingPoints, {{0, 0, 0}, {1, 1, 1}}, bench::mix_seed(ctx.seed(), 812));
  const SearchParams params = serving_params(cloud.size());
  constexpr int kRequests = 48;

  service::SearchService service;
  const service::CloudHandle handle = service.register_cloud("bench", cloud);

  // Calibrate the arrival rate off this machine: mean service time of a
  // short solo burst, then arrivals at 2x that period (a ~50%-utilized
  // server — loaded, not saturated; an unbounded queue would measure
  // queueing growth, not batching). The first query is excluded: it pays
  // the snapshot's one-time index build.
  (void)service.query(handle, request_queries(cloud, 2, 0), params);
  Timer calibrate;
  for (int r = 0; r < 8; ++r) {
    (void)service.query(handle, request_queries(cloud, 1, r), params);
  }
  const double period_s = 2.0 * calibrate.elapsed() / 8.0;

  std::vector<double> latencies;
  (void)ctx.time(
      "open_loop.100k",
      [&] {
        latencies.clear();
        latencies.resize(kRequests, 0.0);
        std::vector<service::SearchService::Ticket> tickets(kRequests);
        std::vector<Timer> stamps(kRequests);
        std::atomic<int> submitted{0};
        std::thread collector([&] {
          // FIFO: the dispatcher serves in arrival order, so waiting in
          // order observes each completion promptly.
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
          Timer arrival;
          stamps[static_cast<std::size_t>(r)].reset();
          tickets[static_cast<std::size_t>(r)] =
              service.submit(handle, request_queries(cloud, 0, r), params);
          submitted.fetch_add(1, std::memory_order_release);
          const double remaining = period_s - arrival.elapsed();
          if (remaining > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
          }
        }
        collector.join();
      },
      {.work_items = static_cast<double>(kRequests)});

  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p90 = percentile(latencies, 0.90);
  const double p99 = percentile(latencies, 0.99);
  ctx.metric("arrival_period_ms", period_s * 1e3, "ms");
  ctx.metric("latency_p50_ms", p50 * 1e3, "ms");
  ctx.metric("latency_p90_ms", p90 * 1e3, "ms");
  ctx.metric("latency_p99_ms", p99 * 1e3, "ms");
  std::printf("%10s %12s %12s %12s\n%9.3fms %10.3fms %10.3fms %10.3fms\n",
              "period", "p50", "p90", "p99", period_s * 1e3, p50 * 1e3, p90 * 1e3,
              p99 * 1e3);
}
