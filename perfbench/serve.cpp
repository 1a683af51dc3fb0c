// serve_mixed and serve_update — closed-loop clients against one
// SearchService tenant. Each client sends its next request only after the
// previous reply (the repo's callers — SPH steps, perception threads —
// wait for every answer). Latency runs from submit() to the ticket's
// answer. Clients + dispatcher + writer + one worker stay within nproc.
//
//   serve_mixed   3 clients, 100k uniform cloud, KNN K=8 (the serving
//                 benches' params). Requests alternate the mixed 16/64/256
//                 windows with the coherent lidar-slice windows of
//                 serving_traffic.hpp: per-request overhead dominates and
//                 the coherent half gives the dedup pass real work.
//   serve_update  2 reader clients + 1 writer over a 200k lidar street
//                 with tiling on (~48 lazy Morton tiles), KNN K=8, r=0.5.
//                 The writer moves a vehicle-sized set of returns and calls
//                 update_points() once per kReadsPerUpdate served reads
//                 (paced by count, so every run does the same work). Half
//                 the reads query the vehicle (hot tiles), half background
//                 windows (cold tiles).
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "datasets/lidar.hpp"
#include "datasets/uniform.hpp"
#include "harness.hpp"
#include "serving_traffic.hpp"

using namespace rtnn;
using namespace perfbench;
using service::CloudConfig;
using service::CloudHandle;
using service::SearchService;
using service::ServiceStats;

namespace {

constexpr std::uint32_t kServingK = 8;
constexpr int kSetups = 15;
constexpr std::size_t kKeptPerClient = 24;  // reservoir of checked requests
constexpr std::size_t kCheckedRowsPerRequest = 16;
constexpr std::size_t kHotWindow = 256;
constexpr std::uint64_t kReadsPerUpdate = 8;
constexpr int kLadderRepeats = 20;

/// One request a client sent: its rows and what came back.
struct Kept {
  std::vector<Vec3> queries;
  NeighborResult result;
  std::uint64_t version = 0;
};

/// One timed operation: when it finished and how long it took.
struct Sample {
  std::int64_t done_ns = 0;
  double ms = 0.0;
};

struct ClientLog {
  std::vector<Sample> latency;
  std::vector<Sample> secondary;  // coherent windows (serve_mixed), vehicle reads (serve_update)
  std::uint64_t failed = 0;
  std::uint64_t neighbors = 0;
  std::uint64_t seen = 0;  // requests offered to the reservoir
  std::vector<Kept> kept;
};

/// What client `c` sends as its request `i`: the rows, and whether the
/// request belongs to the workload's secondary class.
using RequestFn = std::function<std::vector<Vec3>(int c, int i, bool& secondary)>;

struct Served {
  std::unique_ptr<SearchService> service;
  CloudHandle cloud;
};

/// Service construction + register_cloud + the first answer.
Served set_up(std::span<const Vec3> points, const CloudConfig& config,
              const SearchParams& params, std::span<const Vec3> first, double& seconds) {
  const std::int64_t t0 = now_ns();
  Served s;
  s.service = std::make_unique<SearchService>();
  s.cloud = s.service->register_cloud("bench", points, config);
  (void)s.service->query(s.cloud, first, params);
  seconds = seconds_between(t0, now_ns());
  return s;
}

/// `clients` closed-loop threads for `seconds`, advancing in rounds: every
/// client sends its request `i`, waits for the answer, then waits for the
/// others to finish round `i`. Without the rounds the clients' request
/// indices drift apart over a run, the coherent windows stop overlapping,
/// and the dedup share (and with it latency) wandered by a third between
/// runs. `on_read` runs after each served read (the writer's pacing hook).
std::vector<ClientLog> run_clients(Served& s, const SearchParams& params, int clients,
                                   double seconds, const RequestFn& request,
                                   const std::function<void()>& on_read) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<bool> stop{false};
  // One verdict per round, taken before any client is released, so every
  // client leaves after the same round.
  const auto end_of_round = [&]() noexcept { stop = now_ns() >= deadline; };
  std::barrier round(clients, end_of_round);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      Pcg32 reservoir_rng(bench::mix_seed(settings().seed, 0x7e5 + c));
      for (int i = 0; !stop; ++i) {
        bool secondary = false;
        const std::vector<Vec3> rows = request(c, i, secondary);
        const std::int64_t t0 = now_ns();
        try {
          service::RequestOutcome outcome = s.service->submit(s.cloud, rows, params).get();
          const std::int64_t t1 = now_ns();
          const double ms = seconds_between(t0, t1) * 1e3;
          log.latency.push_back({t1, ms});
          if (secondary) log.secondary.push_back({t1, ms});
          log.neighbors += outcome.result.total_neighbors();
          SpanRecorder::instance().record(
              {"service.request", "service", t0, t1, thread_tag(),
               (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint32_t>(i),
               rows.size()});
          // Reservoir sample of answers, checked after the window.
          const std::uint64_t slot =
              log.seen < kKeptPerClient ? log.seen
                                        : reservoir_rng.next_u64() % (log.seen + 1);
          ++log.seen;
          if (slot < kKeptPerClient) {
            Kept kept{rows, std::move(outcome.result), outcome.snapshot_version};
            if (slot < log.kept.size()) {
              log.kept[slot] = std::move(kept);
            } else {
              log.kept.push_back(std::move(kept));
            }
          }
        } catch (const service::ServiceError& e) {
          ++log.failed;
          std::fprintf(stderr, "request failed: %s\n", e.what());
        }
        if (on_read) on_read();
        round.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

std::vector<Sample> merged(const std::vector<ClientLog>& logs,
                           std::vector<Sample> ClientLog::*field) {
  std::vector<Sample> all;
  for (const ClientLog& log : logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  return all;
}

std::vector<double> ms_of(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  for (const Sample& s : samples) ms.push_back(s.ms);
  return ms;
}

/// A window's rate, median and p99, each the median over consecutive
/// groups of `group` samples in completion order. The machine this runs
/// on is shared, so a run has slow stretches; medians over groups keep a
/// few of them from moving the run's figures. With fewer than three
/// groups the whole window is one group.
struct Grouped {
  double rate = 0.0;  // samples per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

Grouped grouped(std::vector<Sample> samples, std::size_t group, std::int64_t start_ns,
                double wall_s) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_ns < b.done_ns; });
  const std::size_t groups = samples.size() / group;
  if (groups < 3) {
    const std::vector<double> ms = ms_of(samples);
    return {static_cast<double>(samples.size()) / wall_s, median(ms), percentile(ms, 0.99)};
  }
  std::vector<double> rates, p50s, p99s;
  std::int64_t from_ns = start_ns;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::vector<Sample> part(samples.begin() + g * group,
                                   samples.begin() + (g + 1) * group);
    const std::vector<double> ms = ms_of(part);
    rates.push_back(static_cast<double>(group) / seconds_between(from_ns, part.back().done_ns));
    p50s.push_back(median(ms));
    p99s.push_back(percentile(ms, 0.99));
    from_ns = part.back().done_ns;
  }
  return {median(rates), median(p50s), median(p99s)};
}

/// Checks every kept answer against brute force over the points of the
/// snapshot version that served it. Returns the mismatching requests.
std::uint64_t check_kept(const std::vector<ClientLog>& logs, const SearchParams& params,
                         const std::function<data::PointCloud(std::uint64_t)>& frame_at) {
  std::map<std::uint64_t, std::vector<const Kept*>> by_version;
  for (const ClientLog& log : logs) {
    for (const Kept& k : log.kept) by_version[k.version].push_back(&k);
  }
  std::uint64_t bad = 0;
  for (const auto& [version, kept] : by_version) {
    const data::PointCloud frame = frame_at(version);
    for (const Kept* k : kept) {
      std::vector<std::uint32_t> rows;
      const std::size_t n = k->queries.size();
      const std::size_t step = std::max<std::size_t>(1, n / kCheckedRowsPerRequest);
      for (std::size_t r = 0; r < n; r += step) rows.push_back(static_cast<std::uint32_t>(r));
      std::vector<Vec3> queries;
      for (const std::uint32_t r : rows) queries.push_back(k->queries[r]);
      if (check_against_brute_force(frame, queries, gather_rows(k->result, rows), params) >
          0) {
        ++bad;
      }
    }
  }
  return bad;
}

NeighborSearch::Report report_delta(const NeighborSearch::Report& after,
                                    const NeighborSearch::Report& before) {
  NeighborSearch::Report d = after;
  for (double TimeBreakdown::*f :
       {&TimeBreakdown::data, &TimeBreakdown::opt, &TimeBreakdown::bvh,
        &TimeBreakdown::refit, &TimeBreakdown::first_search, &TimeBreakdown::search}) {
    d.time.*f -= before.time.*f;
  }
  for (std::uint64_t rt::LaunchStats::*f :
       {&rt::LaunchStats::rays, &rt::LaunchStats::node_visits, &rt::LaunchStats::aabb_tests,
        &rt::LaunchStats::is_calls, &rt::LaunchStats::terminated_rays}) {
    d.stats.*f -= before.stats.*f;
  }
  d.first_hit_stats.node_visits -= before.first_hit_stats.node_visits;
  d.queries_deduped -= before.queries_deduped;
  for (std::uint32_t NeighborSearch::Report::*f :
       {&NeighborSearch::Report::num_partitions, &NeighborSearch::Report::num_bundles,
        &NeighborSearch::Report::accel_refits, &NeighborSearch::Report::accel_rebuilds,
        &NeighborSearch::Report::batch_bins, &NeighborSearch::Report::tiles_touched,
        &NeighborSearch::Report::tile_refits, &NeighborSearch::Report::tile_rebuilds,
        &NeighborSearch::Report::tile_lazy_builds}) {
    d.*f -= before.*f;
  }
  return d;
}

ServiceStats stats_delta(const ServiceStats& after, const ServiceStats& before) {
  ServiceStats d = after;
  d.requests -= before.requests;
  d.batches -= before.batches;
  d.queries -= before.queries;
  d.updates -= before.updates;
  d.shed -= before.shed;
  d.deadline_misses -= before.deadline_misses;
  d.report = report_delta(after.report, before.report);
  return d;
}

/// The serving workloads' shared skeleton. `window` runs one measured
/// window against a set-up service and returns the client logs (plus
/// whatever the workload's writer measured, through its own state).
struct ServeWorkload {
  const char* name;
  std::span<const Vec3> points;
  CloudConfig config;
  SearchParams params;
  std::span<const Vec3> first;  // the set-up's first request
  std::span<const Vec3> ladder_queries;
  int clients;
  std::function<std::vector<ClientLog>(Served&, double seconds)> window;
  std::function<data::PointCloud(std::uint64_t version)> frame_at;
  const std::vector<Sample>* updates = nullptr;  // the writer's, when there is one
};

struct WindowResult {
  std::vector<ClientLog> logs;
  ServiceStats delta;
  std::uint64_t builds = 0;
  std::int64_t start_ns = 0;
  double wall_s = 0.0;
};

WindowResult measure(const ServeWorkload& w, Served& s, double seconds) {
  WindowResult r;
  const ServiceStats before = s.service->stats(s.cloud);
  r.start_ns = now_ns();
  r.logs = w.window(s, seconds);
  r.wall_s = seconds_between(r.start_ns, now_ns());
  const ServiceStats after = s.service->stats(s.cloud);
  r.delta = stats_delta(after, before);
  r.builds = after.builds;
  return r;
}

void run_serve(bench::CaseContext& ctx, ServeWorkload w) {
  const Settings& settings_ = settings();
  set_num_threads(1);
  std::printf("workload %s: %zu points, K=%u, radius %.5f, workers %d, clients %d\n",
              w.name, w.points.size(), w.params.k, w.params.radius, num_threads(),
              w.clients);

  std::vector<double> setups;
  Served s;
  for (int i = 0; i < kSetups; ++i) {
    double seconds = 0.0;
    s = Served{};  // the previous set-up's service shuts down first
    s = set_up(w.points, w.config, w.params, w.first, seconds);
    setups.push_back(seconds);
  }

  // The writer's update latency (serve_update). Its run-to-run spread is
  // too wide to gate, so it is reported and traced but not an end-to-end
  // metric; the vehicle reads stand in for it there.
  const auto update_p50_ms = [&] { return w.updates ? median(ms_of(*w.updates)) : 0.0; };

  WindowResult r;
  if (!settings_.trace) {
    r = measure(w, s, settings_.seconds);
  } else {
    const WindowResult plain = measure(w, s, settings_.seconds / 2);
    s = Served{};
    TracingBackend::register_factory(
        {w.config.tile_threshold, w.config.max_tiles, w.config.lazy_tile_build});
    CloudConfig traced = w.config;
    traced.backend = TracingBackend::kName;
    double unused = 0.0;
    s = set_up(w.points, traced, w.params, w.first, unused);
    SpanRecorder::instance().enable(true);
    r = measure(w, s, settings_.seconds / 2);
    SpanRecorder::instance().enable(false);

    const std::vector<Span> spans = SpanRecorder::instance().spans();
    const auto requests = static_cast<double>(std::max<std::uint64_t>(1, r.delta.requests));
    std::uint64_t neighbors = 0;
    for (const ClientLog& log : r.logs) neighbors += log.neighbors;
    emit_report_layers(ctx, r.delta.report, requests, static_cast<double>(neighbors));
    emit_engine_layer(ctx, spans, requests, /*published_only=*/true);
    emit_service_layer(ctx, r.delta, r.builds, update_p50_ms(), spans);
    emit_ladder(ctx, w.points, w.ladder_queries, w.params, kLadderRepeats);
    emit_trace_overhead(ctx, median(ms_of(merged(plain.logs, &ClientLog::latency))),
                        median(ms_of(merged(r.logs, &ClientLog::latency))));
    write_trace(w.name);
  }

  const std::vector<Sample> latency = merged(r.logs, &ClientLog::latency);
  // Rate and p50 over groups of 200 reads; p99 over groups of 1000, which
  // leave ten samples beyond each group's p99.
  const Grouped reads = grouped(latency, 200, r.start_ns, r.wall_s);
  const Grouped tail = grouped(latency, 1000, r.start_ns, r.wall_s);
  std::uint64_t failed = 0;
  for (const ClientLog& log : r.logs) failed += log.failed;
  ctx.metric("setup_s", median(setups), "s");
  ctx.metric("req_per_s", reads.rate, "1/s");
  ctx.metric("latency_p50_ms", reads.p50_ms, "ms");
  ctx.metric("latency_p99_ms", tail.p99_ms, "ms");
  ctx.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("requests %zu (%llu failed)\n", latency.size(),
              static_cast<unsigned long long>(failed));

  const std::uint64_t mismatches = check_kept(r.logs, w.params, w.frame_at);
  emit_run(ctx, latency.size() + failed + (w.updates ? w.updates->size() : 0), failed,
           mismatches);
  ctx.metric("secondary_p50_ms",
             grouped(merged(r.logs, &ClientLog::secondary), 100, r.start_ns, r.wall_s).p50_ms,
             "ms");
  if (w.updates) {
    std::printf("update_p50_ms %.4f ms over %zu updates\n", update_p50_ms(),
                w.updates->size());
  }
}

}  // namespace

RTNN_BENCH_CASE(perf_serve_mixed, "serve_mixed",
                "serve_mixed — 3 closed-loop clients, mixed + coherent windows",
                "per-request overhead: dispatcher tick, batch optimizer, engine "
                "dispatch and scatter",
                "") {
  const data::PointCloud cloud = data::uniform_box(
      100'000, {{0, 0, 0}, {1, 1, 1}}, bench::mix_seed(settings().seed, 811));
  SearchParams params;  // the serving benches' serving_params()
  params.mode = SearchMode::kKnn;
  params.k = kServingK;
  params.radius = static_cast<float>(std::cbrt(
      2.0 * kServingK * 3.0 / (4.0 * 3.14159265 * static_cast<double>(cloud.size()))));
  params.opts = OptimizationFlags::none();

  const std::span<const Vec3> points(cloud);
  ServeWorkload w;
  w.name = "serve_mixed";
  w.points = points;
  w.params = params;
  w.first = bench_traffic::request_queries(points, 0, 0);
  w.ladder_queries = bench_traffic::request_queries(points, 0, 2);  // 256 rows
  w.clients = 3;
  w.window = [&](Served& s, double seconds) {
    return run_clients(
        s, params, w.clients, seconds,
        [&](int c, int i, bool& coherent) {
          coherent = i % 2 == 1;
          const std::span<const Vec3> rows =
              coherent ? bench_traffic::coherent_request_queries(points, c, i)
                       : bench_traffic::request_queries(points, c, i);
          return std::vector<Vec3>(rows.begin(), rows.end());
        },
        {});
  };
  w.frame_at = [&](std::uint64_t) { return cloud; };
  run_serve(ctx, w);
}

RTNN_BENCH_CASE(perf_serve_update, "serve_update",
                "serve_update — 2 closed-loop readers beside a count-paced writer",
                "refit / rebuild, per-tile copy-on-write, lazy tile builds and "
                "snapshot publish while reads are in flight",
                "") {
  // The canonical street (the dynamic.tiled bench's, seed 0); the seed
  // picks its variant, and the vehicle's motion turns with it.
  data::LidarParams lidar;
  lidar.target_points = 200'000;
  lidar.seed = 5;
  const SeedVariant variant(settings().seed);
  const data::PointCloud street = variant.cloud(data::lidar_scan(lidar), /*shuffle=*/false);
  const std::size_t n = street.size();

  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.k = kServingK;
  params.radius = 0.5f;
  params.opts = OptimizationFlags::none();

  // The vehicle (the dynamic.tiled bench's shape): every return within a
  // car-sized ball of one mid-cloud anchor.
  const Vec3 anchor = street[n / 2];
  std::vector<std::uint32_t> movers;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (distance2(street[i], anchor) < 1.5f * 1.5f) movers.push_back(i);
  }
  // Vehicle motion of update v (deterministic in the seed).
  std::vector<Vec3> steps;
  Pcg32 step_rng(bench::mix_seed(settings().seed, 83));
  const auto step_at = [&](std::size_t v) {
    while (steps.size() <= v) {
      steps.push_back(variant.direction(
          {0.05f * params.radius * (step_rng.next_float() + 0.5f),
           0.02f * params.radius * (step_rng.next_float() - 0.5f), 0.0f}));
    }
    return steps[v];
  };
  const auto frame_at = [&](std::uint64_t version) {
    data::PointCloud frame = street;
    for (std::uint64_t v = 0; v < version; ++v) {
      const Vec3 step = step_at(v);
      for (const std::uint32_t id : movers) frame[id] += step;
    }
    return frame;
  };

  std::vector<Sample> updates_done;
  const std::span<const Vec3> points(street);
  std::vector<Vec3> first;
  for (std::size_t i = 0; i < std::min(kHotWindow, movers.size()); ++i) {
    first.push_back(street[movers[i]]);
  }

  ServeWorkload w;
  w.name = "serve_update";
  w.points = points;
  w.config.tile_threshold = n / 48;  // ~48 Morton tiles
  w.config.lazy_tile_build = true;
  w.params = params;
  w.first = first;
  w.ladder_queries = first;
  w.clients = 2;
  w.window = [&](Served& s, double seconds) {
    // Writer state: the live frame, and the vehicle's current returns
    // (what the hot reads query), republished after every update.
    data::PointCloud frame = street;
    std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t reads = 0;
    bool stop = false;
    auto hot = std::make_shared<const std::vector<Vec3>>(first);
    updates_done.clear();

    std::thread writer([&] {
      for (std::uint64_t v = 0;; ++v) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return stop || reads >= (v + 1) * kReadsPerUpdate; });
          if (stop) return;
        }
        const Vec3 step = step_at(v);
        for (const std::uint32_t id : movers) frame[id] += step;
        const std::int64_t t0 = now_ns();
        s.service->update_points(s.cloud, frame);
        const std::int64_t t1 = now_ns();
        updates_done.push_back({t1, seconds_between(t0, t1) * 1e3});
        auto next = std::make_shared<std::vector<Vec3>>();
        for (const std::uint32_t id : movers) next->push_back(frame[id]);
        std::lock_guard<std::mutex> lock(mutex);
        hot = std::move(next);
      }
    });
    auto logs = run_clients(
        s, params, w.clients, seconds,
        [&](int c, int i, bool& vehicle_read) {
          vehicle_read = i % 2 == 0;
          if (!vehicle_read) {
            const std::span<const Vec3> rows = bench_traffic::request_queries(points, c, i);
            return std::vector<Vec3>(rows.begin(), rows.end());
          }
          std::shared_ptr<const std::vector<Vec3>> vehicle;
          {
            std::lock_guard<std::mutex> lock(mutex);
            vehicle = hot;
          }
          const std::size_t size = std::min(kHotWindow, vehicle->size());
          const std::size_t first_row =
              (static_cast<std::size_t>(c) * 7919 + static_cast<std::size_t>(i) * 499) %
              (vehicle->size() - size + 1);
          return std::vector<Vec3>(vehicle->begin() + first_row,
                                   vehicle->begin() + first_row + size);
        },
        [&] {
          std::lock_guard<std::mutex> lock(mutex);
          if (++reads % kReadsPerUpdate == 0) cv.notify_one();
        });
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    cv.notify_one();
    writer.join();
    return logs;
  };
  w.frame_at = frame_at;
  w.updates = &updates_done;
  run_serve(ctx, w);
}
