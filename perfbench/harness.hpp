// Shared machinery of the repo benchmark (README.md in this directory):
// run settings, the in-memory span recorder and its Chrome trace-event
// export, the delegating engine backend of the traced run, the per-layer
// emitters, and the brute-force answer checks.
//
// Every workload is a BenchRegistry case (RTNN_BENCH_CASE) that reports
// through CaseContext::metric(): end-to-end metrics, per-layer metrics,
// and the run bookkeeping under the "run." prefix (attempted, failed,
// mismatches, drift). main.cpp picks the set the mode asks for.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"
#include "engine/search_backend.hpp"
#include "rtnn/neighbor_search.hpp"
#include "rtnn/types.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace rtnn;

/// Command-line settings of one run.
struct Settings {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;  // trace files and the exact-counter record
};
Settings& settings();

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Nearest-rank percentile of an unsorted sample (copied, sorted).
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// How a seed turns a canonical scene into its input: one of the eight
/// symmetries of the ground plane (x/y swap, x and y mirrors) plus a
/// translation. Distances are preserved, so every seed poses the same
/// neighbor structure and about the same work, while every coordinate
/// (and, with a shuffle, the input order) differs. Generating a fresh
/// scene per seed instead made the work itself vary up to 6x between
/// seeds (a random street can put dense clutter next to the scanner).
struct SeedVariant {
  explicit SeedVariant(std::uint64_t seed);
  Vec3 point(const Vec3& p) const { return direction(p) + shift; }
  Vec3 direction(const Vec3& d) const;
  /// The whole cloud moved by point(), then shuffled when `shuffle`.
  std::vector<Vec3> cloud(std::span<const Vec3> canonical, bool shuffle) const;

  std::uint64_t seed;
  bool swap_xy, mirror_x, mirror_y;
  Vec3 shift;
};

// ---- tracing ---------------------------------------------------------------

/// One closed interval on one thread. `layer` is the Chrome "cat" field.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;    // request id (service spans), call ordinal (engine)
  std::uint64_t rows = 0;  // query rows the call carried
  double stage_s = 0.0;    // engine spans: the call's Report stage sum
  bool published = false;  // engine spans: made on a snapshot() copy, i.e. by
                           // the service's dispatcher rather than its writer
};

/// Process-wide span store. Disabled (every record() a no-op) unless the
/// run is traced; spans stay in memory and are written once, at the end.
class SpanRecorder {
 public:
  static SpanRecorder& instance();
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void record(const Span& span);
  std::vector<Span> spans() const;
  /// Chrome trace-event JSON ("X" complete events, µs), readable by
  /// Perfetto and chrome://tracing.
  void write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Small stable id of the calling thread (the trace's tid column).
std::uint32_t thread_tag();

/// The engine-layer probe of the traced run: a SearchBackend that
/// forwards to an inner backend and records one span per call. Its
/// snapshot() wraps the inner snapshot, so every copy the service
/// publishes stays traced.
class TracingBackend final : public engine::SearchBackend {
 public:
  explicit TracingBackend(std::unique_ptr<engine::SearchBackend> inner,
                          bool published = false)
      : inner_(std::move(inner)), published_(published) {}

  std::string_view name() const override { return kName; }
  engine::BackendCaps caps() const override { return inner_->caps(); }
  void set_points(std::span<const Vec3> points) override;
  void update_points(std::span<const Vec3> points) override;
  std::size_t point_count() const override { return inner_->point_count(); }
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report) override;
  std::unique_ptr<engine::SearchBackend> snapshot() const override;
  void set_index_persistence(bool on) override { inner_->set_index_persistence(on); }

  static constexpr const char* kName = "perfbench.traced_rtnn";

  /// Registers kName with BackendRegistry (idempotent). The service
  /// forwards CloudConfig tiling only to a bare RtnnBackend, so the
  /// factory applies `tiling` to the inner backend itself: the traced
  /// cloud keeps the index layout of the untraced one.
  static void register_factory(const TileOptions& tiling);

 private:
  std::unique_ptr<engine::SearchBackend> inner_;
  bool published_;  // a snapshot() copy (see Span::published)
};

// ---- per-layer emitters ----------------------------------------------------

/// Report-derived per-layer metrics (rtcore.* counters, rtnn.* stages and
/// lifecycle counters), each divided by `per` operations. `neighbors` is
/// the number of neighbors the report's searches returned, in total (for
/// useful_is_ratio).
void emit_report_layers(bench::CaseContext& ctx, const NeighborSearch::Report& report,
                        double per, double neighbors);

/// engine.* from the engine.search spans of the traced window (only the
/// published ones — the dispatcher's — when `published_only`); busy times
/// are divided by `per` operations.
void emit_engine_layer(bench::CaseContext& ctx, const std::vector<Span>& spans, double per,
                       bool published_only);

/// service.* from the window's stats() delta, the service's lifetime
/// build count, the writer's median update_points() latency (0 without a
/// writer), and the request spans, each linked to the engine span it rode
/// in by time containment. Pass zeroed stats and no spans where the
/// workload bypasses the service.
void emit_service_layer(bench::CaseContext& ctx, const service::ServiceStats& delta,
                        std::uint64_t builds, double update_p50_ms,
                        const std::vector<Span>& spans);

/// ox.* and rtcore.trace_s: the ladder over one accel. Builds the accel
/// over `points` (cubes of width 2r), launches KnnPipeline through
/// ox::launch for `queries`, then replays the same rays through
/// rt::trace on the accel's compressed wide BVH. Medians of `repeats`.
void emit_ladder(bench::CaseContext& ctx, std::span<const Vec3> points,
                 std::span<const Vec3> queries, const SearchParams& params, int repeats);

/// Tracing overhead: traced minus untraced value of the workload's
/// primary latency, absolute (ms) and as a share of the untraced value.
void emit_trace_overhead(bench::CaseContext& ctx, double untraced_ms, double traced_ms);

/// Writes the recorder's spans to <state_dir>/trace-<workload>-seed<N>.json.
void write_trace(const std::string& workload);

// ---- answer checks ---------------------------------------------------------

/// Compares `got` (answers for `queries` over `points`) with the
/// brute_force backend. Range: identical neighbor sets where the true
/// count fits in K; where it does not, K distinct in-radius neighbors.
/// KNN: same counts and, rank by rank, the same distances (tie-tolerant,
/// as in tests/test_differential.cpp). Returns the mismatching rows.
std::uint64_t check_against_brute_force(std::span<const Vec3> points,
                                        std::span<const Vec3> queries,
                                        const NeighborResult& got,
                                        const SearchParams& params);

/// Rows `rows` of `full`, as a result of their own.
NeighborResult gather_rows(const NeighborResult& full, std::span<const std::uint32_t> rows);

/// Records the run bookkeeping metrics main.cpp reads; `mismatches`
/// counts operations with a wrong answer (each also counts as failed).
void emit_run(bench::CaseContext& ctx, std::uint64_t attempted, std::uint64_t failed,
              std::uint64_t mismatches);

}  // namespace perfbench
