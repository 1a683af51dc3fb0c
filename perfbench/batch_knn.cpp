// batch_knn — paper Figure 11's shape with one caller: KITTI-25M at bench
// scale 0.02 (500k lidar points, auto-fitted radius, K=16) self-queried
// through engine::make_backend("rtnn") with every optimization on. Each
// round uploads and searches the cloud once in KNN mode and once in range
// mode (set_points + search, so every call pays upload + build + search).
// The service is not involved: dispatcher and optimizer changes must read
// as no change here.
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "engine/registry.hpp"
#include "harness.hpp"

using namespace rtnn;
using namespace perfbench;

namespace {

constexpr std::uint32_t kK = 16;
constexpr int kSetups = 5;
constexpr int kMinRounds = 3;
constexpr std::size_t kCheckedRows = 256;

/// The exact work counters of one search call.
struct Counters {
  std::uint64_t values[10] = {};
  static constexpr const char* kNames[10] = {
      "rays",       "node_visits",    "aabb_tests", "is_calls", "terminated_rays",
      "fs_node_visits", "partitions", "bundles",    "index_bytes", "neighbors"};

  static Counters of(const NeighborSearch::Report& r, const NeighborResult& result) {
    return {{r.stats.rays, r.stats.node_visits, r.stats.aabb_tests, r.stats.is_calls,
             r.stats.terminated_rays, r.first_hit_stats.node_visits, r.num_partitions,
             r.num_bundles, r.index_total_bytes, result.total_neighbors()}};
  }
  bool operator==(const Counters&) const = default;
  std::string text(const char* mode) const {
    std::ostringstream out;
    for (int i = 0; i < 10; ++i) out << mode << "." << kNames[i] << " " << values[i] << "\n";
    return out.str();
  }
};

struct Window {
  std::vector<double> knn_ms, range_ms;  // untraced rounds
  std::vector<double> traced_knn_ms;     // traced rounds (trace mode only)
  std::vector<NeighborSearch::Report> round_reports;  // KNN + range, per round
  Counters knn_counters, range_counters;
  std::uint64_t drifts = 0;     // rounds whose counters differ from round 0
  std::uint64_t neighbors = 0;  // per round
  std::uint64_t calls = 0, traced_rounds = 0;
  double wall_s = 0.0;
  NeighborResult last_knn, last_range;
};

/// Rounds of one KNN and one range call until `seconds` pass. In trace
/// mode every other round goes through the traced engine backend, so the
/// traced and untraced latencies come from interleaved rounds.
Window run_window(const data::PointCloud& points, const SearchParams& knn,
                  const SearchParams& range, double seconds, bool trace) {
  Window w;
  auto plain = engine::make_backend("rtnn");
  std::unique_ptr<engine::SearchBackend> traced;
  if (trace) {
    TracingBackend::register_factory({});
    traced = engine::make_backend(TracingBackend::kName);
  }
  const int min_rounds = trace ? 2 * kMinRounds : kMinRounds;
  const std::int64_t start = now_ns();
  for (int round = 0;; ++round) {
    const bool traced_round = trace && round % 2 == 1;
    engine::SearchBackend& backend = traced_round ? *traced : *plain;
    SpanRecorder::instance().enable(traced_round);
    const auto call = [&](const SearchParams& params, std::vector<double>* lat,
                          NeighborSearch::Report& report) {
      const std::int64_t t0 = now_ns();
      backend.set_points(points);
      NeighborResult result = backend.search(points, params, &report);
      if (lat != nullptr) lat->push_back(seconds_between(t0, now_ns()) * 1e3);
      ++w.calls;
      return result;
    };
    NeighborSearch::Report knn_report, range_report;
    w.last_knn = call(knn, traced_round ? &w.traced_knn_ms : &w.knn_ms, knn_report);
    w.last_range = call(range, traced_round ? nullptr : &w.range_ms, range_report);
    SpanRecorder::instance().enable(false);
    if (traced_round) ++w.traced_rounds;
    const Counters kc = Counters::of(knn_report, w.last_knn);
    const Counters rc = Counters::of(range_report, w.last_range);
    if (round == 0) {
      w.knn_counters = kc;
      w.range_counters = rc;
      w.neighbors = w.last_knn.total_neighbors() + w.last_range.total_neighbors();
    } else if (!(kc == w.knn_counters) || !(rc == w.range_counters)) {
      ++w.drifts;
    }
    knn_report += range_report;
    w.round_reports.push_back(knn_report);
    w.wall_s = seconds_between(start, now_ns());
    if (round + 1 >= min_rounds && w.wall_s >= seconds) break;
  }
  return w;
}

/// Counters of round 0 (exact) with each phase time the median over rounds.
NeighborSearch::Report median_round(const std::vector<NeighborSearch::Report>& rounds) {
  NeighborSearch::Report r = rounds.front();
  const auto med = [&](double TimeBreakdown::*field) {
    std::vector<double> v;
    for (const auto& x : rounds) v.push_back(x.time.*field);
    return median(v);
  };
  for (double TimeBreakdown::*field :
       {&TimeBreakdown::data, &TimeBreakdown::opt, &TimeBreakdown::bvh,
        &TimeBreakdown::refit, &TimeBreakdown::first_search, &TimeBreakdown::search}) {
    r.time.*field = med(field);
  }
  return r;
}

/// Identity of the running binary, so the counter record is only ever
/// compared across runs of one build.
std::string build_id() {
  struct stat st {};
  if (stat("/proc/self/exe", &st) != 0) return "unknown";
  return std::to_string(st.st_size) + "@" + std::to_string(st.st_mtime);
}

/// Compares this run's exact counters with the record an earlier run of
/// the same build and seed left in the state directory (writing it when
/// there is none). Returns true on drift.
bool drifted_from_record(const std::string& counters) {
  const std::string path = settings().state_dir + "/counters-batch_knn-seed" +
                           std::to_string(settings().seed) + ".txt";
  const std::string record = "build " + build_id() + "\n" + counters;
  std::ifstream in(path);
  if (in.good()) {
    std::stringstream previous;
    previous << in.rdbuf();
    const std::string prev = previous.str();
    if (prev.rfind("build " + build_id() + "\n", 0) == 0) return prev != record;
  }
  std::ofstream(path) << record;
  return false;
}

}  // namespace

RTNN_BENCH_CASE(perf_batch_knn, "batch_knn",
                "batch_knn — one caller, whole-cloud KNN and range (paper Fig. 11 shape)",
                "rtcore traversal and the rtnn stages do nearly all the work", "") {
  const Settings& s = settings();
  set_num_threads(nproc());
  // The canonical scene and its auto radius; the seed picks the variant.
  const bench::BenchDataset ds = bench::paper_dataset("KITTI-25M", 0.02, kK, 0);
  const data::PointCloud points = SeedVariant(s.seed).cloud(ds.points, /*shuffle=*/true);

  SearchParams knn;
  knn.mode = SearchMode::kKnn;
  knn.radius = ds.radius;
  knn.k = kK;
  SearchParams range = knn;
  range.mode = SearchMode::kRange;
  std::printf("workload batch_knn: %zu points, radius %.4f, K=%u, workers %d, clients 1\n",
              points.size(), ds.radius, kK, num_threads());

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    auto backend = engine::make_backend("rtnn");
    backend->set_points(points);
    (void)backend->search(std::span<const Vec3>(points.data(), 1), knn, nullptr);
    setups.push_back(seconds_between(t0, now_ns()));
  }

  const Window w = run_window(points, knn, range, s.seconds, s.trace);
  if (s.trace) {
    emit_report_layers(ctx, median_round(w.round_reports), 1.0,
                       static_cast<double>(w.neighbors));
    emit_engine_layer(ctx, SpanRecorder::instance().spans(),
                      static_cast<double>(w.traced_rounds), /*published_only=*/false);
    emit_service_layer(ctx, {}, 0, 0.0, {});
    // The ladder replays a quarter of the cloud as KNN rays.
    std::vector<Vec3> ladder_queries;
    for (std::size_t i = 0; i < points.size(); i += 4) ladder_queries.push_back(points[i]);
    emit_ladder(ctx, points, ladder_queries, knn, 3);
    emit_trace_overhead(ctx, median(w.knn_ms), median(w.traced_knn_ms));
    write_trace("batch_knn");
  }

  ctx.metric("setup_s", median(setups), "s");
  ctx.metric("req_per_s", static_cast<double>(w.calls) / w.wall_s, "1/s");
  ctx.metric("latency_p50_ms", median(w.knn_ms), "ms");
  ctx.metric("latency_p99_ms", percentile(w.knn_ms, 0.99), "ms");
  ctx.metric("secondary_p50_ms", median(w.range_ms), "ms");
  ctx.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("knn_s %.6f s (median of %zu)\nrange_s %.6f s (median of %zu)\n",
              median(w.knn_ms) * 1e-3, w.knn_ms.size(), median(w.range_ms) * 1e-3,
              w.range_ms.size());

  // Exact-counter self-check: these repeat bit-for-bit for one build and
  // seed, across rounds of a run and across runs.
  const std::string counters = w.knn_counters.text("knn") + w.range_counters.text("range");
  std::printf("exact counters (per call):\n%s", counters.c_str());
  std::uint64_t drift = w.drifts;
  if (drifted_from_record(counters)) ++drift;
  if (drift > 0) {
    std::printf("COUNTER DRIFT: exact counters differ between runs of one build\n");
  }
  ctx.metric("run.drift", static_cast<double>(drift), "count");

  // Answers: a seeded sample of rows of the last KNN and range calls.
  Pcg32 rng(bench::mix_seed(s.seed, 0x5eed));
  std::vector<std::uint32_t> rows(kCheckedRows);
  std::vector<Vec3> queries(kCheckedRows);
  for (std::size_t i = 0; i < kCheckedRows; ++i) {
    rows[i] = rng.next_bounded(static_cast<std::uint32_t>(points.size()));
    queries[i] = points[rows[i]];
  }
  std::uint64_t mismatches = 0;
  for (const auto& [params, result] :
       {std::pair{&knn, &w.last_knn}, std::pair{&range, &w.last_range}}) {
    if (check_against_brute_force(points, queries, gather_rows(*result, rows), *params) > 0) {
      ++mismatches;
    }
  }
  emit_run(ctx, w.calls, 0, mismatches);
}
