#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "core/aabb.hpp"
#include "core/error.hpp"
#include "core/flat_knn.hpp"
#include "core/rng.hpp"
#include "core/timing.hpp"
#include "datasets/point_cloud.hpp"
#include "engine/backends.hpp"
#include "engine/registry.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"

namespace perfbench {

Settings& settings() {
  static Settings s;
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

SeedVariant::SeedVariant(std::uint64_t seed_) : seed(seed_) {
  Pcg32 rng(seed_ ^ 0x51ed5eedULL);
  const std::uint32_t symmetry = rng.next_bounded(8);
  swap_xy = (symmetry & 1u) != 0;
  mirror_x = (symmetry & 2u) != 0;
  mirror_y = (symmetry & 4u) != 0;
  const auto offset = [&] { return 20.0f * (rng.next_float() - 0.5f); };
  shift = {offset(), offset(), offset()};
}

Vec3 SeedVariant::direction(const Vec3& d) const {
  Vec3 out = swap_xy ? Vec3{d.y, d.x, d.z} : d;
  if (mirror_x) out.x = -out.x;
  if (mirror_y) out.y = -out.y;
  return out;
}

std::vector<Vec3> SeedVariant::cloud(std::span<const Vec3> canonical, bool shuffle) const {
  std::vector<Vec3> out;
  out.reserve(canonical.size());
  for (const Vec3& p : canonical) out.push_back(point(p));
  if (shuffle) data::shuffle(out, seed);
  return out;
}

// ---- tracing ---------------------------------------------------------------

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::record(const Span& span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(), [](const Span& a, const Span& b) {
               return a.start_ns < b.start_ns;
             })->start_ns;
  }
  std::ofstream out(path);
  RTNN_CHECK(out.good(), "cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"rows\":%llu,"
                  "\"stage_s\":%.9f,\"published\":%d}}%s\n",
                  s.name, s.layer, s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.rows), s.stage_s, s.published ? 1 : 0,
                  i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  RTNN_CHECK(out.good(), "short write to trace file " + path);
}

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

void write_trace(const std::string& workload) {
  const std::string path = settings().state_dir + "/trace-" + workload + "-seed" +
                           std::to_string(settings().seed) + ".json";
  SpanRecorder::instance().write_chrome_json(path);
  std::printf("trace: %s (%zu spans)\n", path.c_str(),
              SpanRecorder::instance().spans().size());
}

// ---- engine probe ----------------------------------------------------------

namespace {

std::atomic<std::uint64_t> engine_calls{0};

/// Times `fn` as one engine span named `name`.
template <typename Fn>
void engine_span(const char* name, std::uint64_t rows, bool published, Fn&& fn) {
  Span span{name, "engine", now_ns(), 0, thread_tag(), engine_calls.fetch_add(1), rows};
  span.published = published;
  fn(span);
  span.end_ns = now_ns();
  SpanRecorder::instance().record(span);
}

}  // namespace

void TracingBackend::set_points(std::span<const Vec3> points) {
  engine_span("engine.set_points", points.size(), published_,
              [&](Span&) { inner_->set_points(points); });
}

void TracingBackend::update_points(std::span<const Vec3> points) {
  engine_span("engine.update_points", points.size(), published_,
              [&](Span&) { inner_->update_points(points); });
}

NeighborResult TracingBackend::search(std::span<const Vec3> queries,
                                      const SearchParams& params, Report* report) {
  Report local;
  Report* sink = report != nullptr ? report : &local;
  NeighborResult result;
  engine_span("engine.search", queries.size(), published_, [&](Span& span) {
    result = inner_->search(queries, params, sink);
    span.stage_s = sink->time.total();
  });
  return result;
}

std::unique_ptr<engine::SearchBackend> TracingBackend::snapshot() const {
  std::unique_ptr<engine::SearchBackend> inner = inner_->snapshot();
  if (inner == nullptr) return nullptr;
  return std::make_unique<TracingBackend>(std::move(inner), /*published=*/true);
}

void TracingBackend::register_factory(const TileOptions& tiling) {
  engine::BackendRegistry::instance().add(kName, [tiling] {
    auto inner = std::make_unique<engine::RtnnBackend>();
    if (tiling.enabled()) inner->core().set_tiling(tiling);
    return std::make_unique<TracingBackend>(std::move(inner));
  });
}

// ---- per-layer emitters ----------------------------------------------------

void emit_report_layers(bench::CaseContext& ctx, const NeighborSearch::Report& r,
                        double per, double neighbors) {
  const auto count = [&](const char* name, double total) {
    ctx.metric(name, total / per, "count");
  };
  const auto secs = [&](const char* name, double total) {
    ctx.metric(name, total / per, "s");
  };
  count("rtcore.rays", static_cast<double>(r.stats.rays));
  count("rtcore.node_visits", static_cast<double>(r.stats.node_visits));
  count("rtcore.aabb_tests", static_cast<double>(r.stats.aabb_tests));
  count("rtcore.is_calls", static_cast<double>(r.stats.is_calls));
  count("rtcore.terminated_rays", static_cast<double>(r.stats.terminated_rays));
  count("rtcore.fs_node_visits", static_cast<double>(r.first_hit_stats.node_visits));
  ctx.metric("rtcore.node_visits_per_ray", r.stats.node_visits_per_ray(), "count");
  ctx.metric("rtcore.index_bytes", static_cast<double>(r.index_total_bytes), "B");
  // LaunchStats::hits has no writer in the traversal, so the useful share
  // of IS calls comes from what the searches actually returned.
  ctx.metric("rtcore.useful_is_ratio",
             r.stats.is_calls ? neighbors / static_cast<double>(r.stats.is_calls) : 0.0,
             "ratio");

  secs("rtnn.data_s", r.time.data);
  secs("rtnn.opt_s", r.time.opt);
  secs("rtnn.bvh_s", r.time.bvh);
  secs("rtnn.refit_s", r.time.refit);
  secs("rtnn.fs_s", r.time.first_search);
  secs("rtnn.search_s", r.time.search);
  count("rtnn.partitions", r.num_partitions);
  count("rtnn.bundles", r.num_bundles);
  count("rtnn.queries_deduped", static_cast<double>(r.queries_deduped));
  ctx.metric("rtnn.dedup_share",
             r.stats.rays + r.queries_deduped
                 ? static_cast<double>(r.queries_deduped) /
                       static_cast<double>(r.stats.rays + r.queries_deduped)
                 : 0.0,
             "ratio");
  count("rtnn.batch_bins", r.batch_bins);
  count("rtnn.accel_refits", r.accel_refits);
  count("rtnn.accel_rebuilds", r.accel_rebuilds);
  count("rtnn.tiles_touched", r.tiles_touched);
  count("rtnn.tile_refits", r.tile_refits);
  count("rtnn.tile_rebuilds", r.tile_rebuilds);
  count("rtnn.tile_lazy_builds", r.tile_lazy_builds);
}

void emit_engine_layer(bench::CaseContext& ctx, const std::vector<Span>& spans, double per,
                       bool published_only) {
  double calls = 0.0, rows = 0.0, busy = 0.0, stages = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "engine.search" || (published_only && !s.published)) {
      continue;
    }
    calls += 1.0;
    rows += static_cast<double>(s.rows);
    busy += seconds_between(s.start_ns, s.end_ns);
    stages += s.stage_s;
  }
  ctx.metric("engine.calls", calls / per, "count");
  ctx.metric("engine.rows_per_call", calls > 0 ? rows / calls : 0.0, "count");
  ctx.metric("engine.search_s", busy / per, "s");
  ctx.metric("engine.overhead_s", (busy - stages) / per, "s");
}

void emit_service_layer(bench::CaseContext& ctx, const service::ServiceStats& delta,
                        std::uint64_t builds, double update_p50_ms,
                        const std::vector<Span>& spans) {
  ctx.metric("service.batches", static_cast<double>(delta.batches), "count");
  ctx.metric("service.requests_per_batch",
             delta.batches ? static_cast<double>(delta.requests) /
                                 static_cast<double>(delta.batches)
                           : 0.0,
             "count");
  ctx.metric("service.shed", static_cast<double>(delta.shed), "count");
  ctx.metric("service.deadline_misses", static_cast<double>(delta.deadline_misses), "count");
  ctx.metric("service.builds", static_cast<double>(builds), "count");
  ctx.metric("service.updates", static_cast<double>(delta.updates), "count");
  ctx.metric("service.update_p50_ms", update_p50_ms, "ms");

  // Link each request to the engine call it rode in: the dispatcher runs
  // one engine call at a time on a published snapshot (the writer's warm
  // probes run on the master), so the latest such engine.search span that
  // ended before the request was ready, and started after it was
  // submitted, is its launch.
  std::vector<const Span*> launches;
  for (const Span& s : spans) {
    if (s.published && std::string_view(s.name) == "engine.search") launches.push_back(&s);
  }
  std::sort(launches.begin(), launches.end(),
            [](const Span* a, const Span* b) { return a->end_ns < b->end_ns; });
  std::vector<double> waits, scatters;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "service.request") continue;
    auto it = std::upper_bound(launches.begin(), launches.end(), s.end_ns,
                               [](std::int64_t t, const Span* l) { return t < l->end_ns; });
    if (it == launches.begin()) continue;
    const Span* launch = *std::prev(it);
    if (launch->start_ns < s.start_ns) continue;
    waits.push_back(seconds_between(s.start_ns, launch->start_ns) * 1e3);
    scatters.push_back(seconds_between(launch->end_ns, s.end_ns) * 1e3);
  }
  ctx.metric("service.queue_wait_p50_ms", percentile(waits, 0.5), "ms");
  ctx.metric("service.queue_wait_p99_ms", percentile(waits, 0.99), "ms");
  ctx.metric("service.scatter_p50_ms", percentile(scatters, 0.5), "ms");
}

namespace {

/// rt::trace's program contract over a pipeline (the role ox::launch's
/// own adapter plays).
struct TraceProgram {
  pipelines::KnnPipeline& pipeline;
  rt::TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    return pipeline.intersection(ray, prim);
  }
};

}  // namespace

void emit_ladder(bench::CaseContext& ctx, std::span<const Vec3> points,
                 std::span<const Vec3> queries, const SearchParams& params, int repeats) {
  const float width = 2.0f * params.radius;
  std::vector<Aabb> boxes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) boxes[i] = Aabb::cube(points[i], width);
  std::vector<std::uint32_t> ids(queries.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<Ray> rays(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) rays[i] = Ray::short_ray(queries[i]);
  const auto width_u32 = static_cast<std::uint32_t>(queries.size());

  const ox::Context context;
  std::vector<double> build_s, launch_s, trace_s;
  for (int rep = 0; rep < repeats; ++rep) {
    Timer build_timer;
    const ox::Accel accel = context.build_accel(boxes);
    build_s.push_back(build_timer.elapsed());

    FlatKnnHeaps launch_heaps(queries.size(), params.k);
    pipelines::KnnPipeline launch_pipe(points, queries, ids, params.radius, launch_heaps);
    Timer launch_timer;
    (void)ox::launch(accel, launch_pipe, width_u32);
    launch_s.push_back(launch_timer.elapsed());

    FlatKnnHeaps trace_heaps(queries.size(), params.k);
    pipelines::KnnPipeline trace_pipe(points, queries, ids, params.radius, trace_heaps);
    TraceProgram program{trace_pipe};
    rt::TraceConfig config;
    config.use_compressed = true;  // ox::LaunchOptions' default layout
    Timer trace_timer;
    (void)rt::trace(accel.wide_bvh(), std::span<const Ray>(rays), program, config);
    trace_s.push_back(trace_timer.elapsed());
  }
  const double launch = median(launch_s), trace = median(trace_s);
  ctx.metric("ox.build_s", median(build_s), "s");
  ctx.metric("ox.launch_s", launch, "s");
  ctx.metric("ox.launch_overhead_s", launch - trace, "s");
  ctx.metric("rtcore.trace_s", trace, "s");
}

void emit_trace_overhead(bench::CaseContext& ctx, double untraced_ms, double traced_ms) {
  ctx.metric("trace.overhead_ms", traced_ms - untraced_ms, "ms");
  ctx.metric("trace.overhead_share",
             untraced_ms > 0 ? (traced_ms - untraced_ms) / untraced_ms : 0.0, "ratio");
}

// ---- answer checks ---------------------------------------------------------

std::uint64_t check_against_brute_force(std::span<const Vec3> points,
                                        std::span<const Vec3> queries,
                                        const NeighborResult& got,
                                        const SearchParams& params) {
  auto reference = engine::make_backend("brute_force");
  reference->set_points(points);
  SearchParams truth_params = params;
  // Range: a K far above any true count makes the reference set unique.
  constexpr std::uint32_t kRangeTruthK = 1u << 14;
  if (params.mode == SearchMode::kRange) truth_params.k = kRangeTruthK;
  const NeighborResult truth = reference->search(queries, truth_params, nullptr);

  const float r2 = params.radius * params.radius;
  std::uint64_t bad = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::uint32_t> mine(got.neighbors(q).begin(), got.neighbors(q).end());
    std::vector<std::uint32_t> ref(truth.neighbors(q).begin(), truth.neighbors(q).end());
    bool ok = std::all_of(mine.begin(), mine.end(),
                          [&](std::uint32_t p) { return p < points.size(); });
    if (ok && params.mode == SearchMode::kRange) {
      std::sort(mine.begin(), mine.end());
      std::sort(ref.begin(), ref.end());
      if (ref.size() <= params.k) {
        ok = mine == ref;
      } else {
        // More true neighbors than K: any K distinct in-radius ones are
        // a valid answer (the SearchBackend contract).
        ok = mine.size() == params.k &&
             std::adjacent_find(mine.begin(), mine.end()) == mine.end() &&
             std::all_of(mine.begin(), mine.end(), [&](std::uint32_t p) {
               return distance2(points[p], queries[q]) <= r2;
             });
        if (ref.size() < kRangeTruthK) {
          ok = ok && std::includes(ref.begin(), ref.end(), mine.begin(), mine.end());
        }
      }
    } else if (ok) {
      const auto dists = [&](const std::vector<std::uint32_t>& ids) {
        std::vector<float> d;
        for (const std::uint32_t p : ids) d.push_back(distance2(points[p], queries[q]));
        std::sort(d.begin(), d.end());
        return d;
      };
      ok = dists(mine) == dists(ref);
    }
    if (!ok) ++bad;
  }
  return bad;
}

NeighborResult gather_rows(const NeighborResult& full, std::span<const std::uint32_t> rows) {
  NeighborResult out(rows.size(), full.k());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const std::uint32_t p : full.neighbors(rows[i])) out.record(i, p);
  }
  return out;
}

void emit_run(bench::CaseContext& ctx, std::uint64_t attempted, std::uint64_t failed,
              std::uint64_t mismatches) {
  ctx.metric("run.attempted", static_cast<double>(attempted), "count");
  ctx.metric("run.failed", static_cast<double>(failed + mismatches), "count");
  ctx.metric("run.mismatches", static_cast<double>(mismatches), "count");
}

}  // namespace perfbench
