// Dynamic point-cloud benches: the per-frame index lifecycle.
//
// Not a paper figure. The paper's headline workloads (lidar frames, SPH
// fluids, N-body steps) are frame *sequences*, but its evaluation is
// single-frame — every timestep pays a from-scratch build. These cases
// measure what the lifecycle adds on a small-motion drift sequence (the
// SPH/N-body regime), at three absolute sizes (not paper-scaled: the
// object is the refit-vs-rebuild ratio at named sizes, comparable across
// runs regardless of --scale):
//
//   frame_step.*  end-to-end frame latency for a tracking-shaped load
//                 (Q = N/10 queries against the persistent cloud). Index
//                 maintenance dominates here, so the lifecycle's speedup
//                 shows up end to end.
//   selfknn.*     end-to-end frame latency for the SPH shape (Q = N
//                 self-neighborhoods). Search dominates; the lifecycle
//                 still removes the whole build from the critical path,
//                 but the end-to-end ratio is bounded by search cost.
//   index.*       the index-maintenance component alone (time.bvh +
//                 time.refit + upload of the per-frame Report) — the
//                 pure refit-vs-rebuild ratio.
//
// dynamic.policy exercises the cost model's refit-vs-rebuild decision on
// correspondence-free lidar sweeps, where refit quality collapses and
// rebuilds must kick in.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/morton.hpp"
#include "datasets/motion.hpp"
#include "datasets/uniform.hpp"
#include "rtnn/rtnn.hpp"

using namespace rtnn;

namespace {

constexpr std::uint32_t kFrameK = 8;

/// KNN frame search over one kept monolithic index (the frame-loop
/// configuration): radius sized for ~2K expected
/// neighbors in the unit cube at population n.
SearchParams frame_params(std::size_t n) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.k = kFrameK;
  params.radius = static_cast<float>(
      std::cbrt(2.0 * kFrameK * 3.0 / (4.0 * 3.14159265 * static_cast<double>(n))));
  params.opts = OptimizationFlags::none();
  return params;
}

/// Initial cloud in Morton order, the way frame workloads keep their
/// points (SPH codes re-sort periodically; lidar arrives scan-ordered).
/// Small-motion frames then stay coherent without per-frame scheduling.
data::PointCloud morton_ordered_cloud(std::size_t n, std::uint64_t seed) {
  data::PointCloud points = data::uniform_box(n, {{0, 0, 0}, {1, 1, 1}}, seed);
  const Aabb box = data::bounds(points);
  std::sort(points.begin(), points.end(), [&](const Vec3& a, const Vec3& b) {
    return morton3d_63(a, box) < morton3d_63(b, box);
  });
  return points;
}

/// A contiguous Morton window of N/10 points: the tracking-shaped query
/// load (a sensor or solver working one spatial region of the persistent
/// cloud per frame). Contiguous in Morton order = spatially compact =
/// coherent rays.
std::span<const Vec3> tracked_queries(const data::PointCloud& frame) {
  return std::span<const Vec3>(frame.data(), frame.size() / 10);
}

}  // namespace

RTNN_BENCH_CASE(dynamic_frame, "dynamic.frame",
                "Dynamic frame-step — refit lifecycle vs per-frame rebuild",
                "refitting a persistent accel amortizes the per-frame BVH build "
                "(the standard RT driver practice for dynamic geometry)",
                "absolute sizes; small-motion drift (~10% of r per frame)") {
  // Three timing pairs per size, refit-lifecycle vs rebuild-every-frame:
  //   frame_step  the per-frame *index* work the lifecycle changes
  //               (time.bvh + time.refit of the frame's Report) — query
  //               cost, identical code on both paths, excluded
  //   track       end-to-end frame, tracking load (Q = N/10 window)
  //   selfknn     end-to-end frame, SPH shape (Q = N self-neighborhoods;
  //               search-bound, so the end-to-end ratio compresses)
  std::printf("%8s %12s  %14s %14s %9s %10s\n", "points", "timing", "refit[s]",
              "rebuild[s]", "speedup", "frames/s");
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000},
                              std::size_t{1'000'000}}) {
    const std::string label =
        n == 10'000 ? "10k" : (n == 100'000 ? "100k" : "1000k");
    const data::PointCloud cloud =
        morton_ordered_cloud(n, bench::mix_seed(ctx.seed(), 271));
    const SearchParams params = frame_params(n);
    data::DriftParams drift;
    drift.velocity = 0.1f * params.radius;
    drift.seed = bench::mix_seed(ctx.seed(), 39);

    // One motion stream and one searcher per path and timing, so every
    // sample is a fresh frame absorbed by the path under test.
    enum class Load { kIndex, kTrack, kSelf };
    struct FrameTiming {
      const char* name;
      Load load;
    };
    for (const FrameTiming timing : {FrameTiming{"frame_step", Load::kIndex},
                                     FrameTiming{"track", Load::kTrack},
                                     FrameTiming{"selfknn", Load::kSelf}}) {
      // Refit lifecycle path: moves, then searches, one kept index.
      NeighborSearch lifecycle;
      data::DriftMotion lifecycle_motion(cloud, drift);
      lifecycle.set_points(lifecycle_motion.points());
      (void)lifecycle.search(lifecycle_motion.points(), params);  // frame 0: build, untimed
      NeighborSearch::Report last_report;
      const double refit_s = ctx.sample(
          std::string(timing.name) + ".refit." + label,
          [&] {
            const data::PointCloud& frame = lifecycle_motion.step();  // untimed
            Timer timer;
            lifecycle.update_points(frame);
            if (timing.load == Load::kSelf) {
              (void)lifecycle.search(frame, params, &last_report);
            } else {
              (void)lifecycle.search(tracked_queries(frame), params, &last_report);
            }
            return timing.load == Load::kIndex
                       ? last_report.time.bvh + last_report.time.refit
                       : timer.elapsed();
          },
          {.work_items = static_cast<double>(n)});
      if (timing.load == Load::kSelf) {
        ctx.metric("sah_inflation." + label, last_report.sah_inflation);
      }

      // The pre-lifecycle behavior: upload + from-scratch build per frame.
      NeighborSearch rebuild;
      data::DriftMotion rebuild_motion(cloud, drift);
      const double rebuild_s = ctx.sample(
          std::string(timing.name) + ".rebuild." + label,
          [&] {
            const data::PointCloud& frame = rebuild_motion.step();
            NeighborSearch::Report report;
            Timer timer;
            rebuild.set_points(frame);
            if (timing.load == Load::kSelf) {
              (void)rebuild.search(frame, params, &report);
            } else {
              (void)rebuild.search(tracked_queries(frame), params, &report);
            }
            return timing.load == Load::kIndex ? report.time.bvh : timer.elapsed();
          },
          {.work_items = static_cast<double>(n)});

      ctx.metric(std::string("speedup.") + timing.name + "." + label,
                 rebuild_s / refit_s, "x");
      if (timing.load == Load::kIndex) {
        std::printf("%8zu %12s  %14.5f %14.5f %8.2fx\n", n, timing.name, refit_s,
                    rebuild_s, rebuild_s / refit_s);
      } else {
        std::printf("%8zu %12s  %14.5f %14.5f %8.2fx %10.1f\n", n, timing.name,
                    refit_s, rebuild_s, rebuild_s / refit_s, 1.0 / refit_s);
      }
    }
  }
}

RTNN_BENCH_CASE(dynamic_tiled, "dynamic.tiled",
                "Two-level tiled index — localized motion touches few tiles",
                "a TLAS over Morton tiles confines per-frame index work to the "
                "tiles whose members actually moved; the monolithic index pays "
                "O(N) refit for the same frames",
                "100k-point lidar street, one moving vehicle-sized region; "
                "touched-tile fraction and index work vs monolithic") {
  // The locality workload the monolithic lifecycle cannot exploit: a
  // lidar street where only the returns on one moving vehicle change
  // between frames (everything else is static background). Point count
  // and identity are constant, so both paths run their update lifecycle;
  // the tiled path should touch ~touched/tile_count of the index.
  data::LidarParams lidar;
  lidar.target_points = 100'000;
  lidar.seed = bench::mix_seed(ctx.seed(), 5);
  const data::PointCloud street = data::lidar_scan(lidar);
  const std::size_t n = street.size();

  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.k = kFrameK;
  params.radius = 0.5f;
  params.opts = OptimizationFlags::none();

  // The vehicle: every return within a car-sized ball of one anchor
  // (picked mid-cloud so it lands on real geometry).
  const Vec3 anchor = street[n / 2];
  std::vector<std::uint32_t> movers;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (distance2(street[i], anchor) < 1.5f * 1.5f) movers.push_back(i);
  }

  TileOptions tiling;
  tiling.tile_threshold = n / 48;  // ~48 Morton tiles
  tiling.lazy_build = true;

  struct Path {
    const char* name;
    bool tiled;
  };
  std::uint64_t touched = 0, tile_frames = 0, lazy_builds = 0;
  std::uint32_t tile_count = 0, tile_refits = 0, tile_rebuilds = 0;
  std::uint64_t tile_index_bytes = 0;
  double tiled_s = 0.0, mono_s = 0.0;
  for (const Path path : {Path{"tiled", true}, Path{"mono", false}}) {
    NeighborSearch search;
    if (path.tiled) search.set_tiling(tiling);
    search.set_points(street);
    data::PointCloud frame = street;
    Pcg32 rng(bench::mix_seed(ctx.seed(), 83));
    // The perception load interrogates the moving object: queries are the
    // vehicle's own returns, so the touched tiles are also the routed
    // ones (lazy builds, then per-tile refits, land on the hot region).
    std::vector<Vec3> queries(movers.size());
    const auto vehicle_queries = [&] {
      for (std::size_t i = 0; i < movers.size(); ++i) queries[i] = frame[movers[i]];
      return std::span<const Vec3>(queries);
    };
    NeighborSearch::Report frame0;  // frame 0: routed tiles build lazily here
    (void)search.search(vehicle_queries(), params, &frame0);
    if (path.tiled) lazy_builds += frame0.tile_lazy_builds;
    const double step_s = ctx.sample(
        std::string("frame_step.") + path.name,
        [&] {
          // Advance the vehicle: small coherent drift plus jitter,
          // background untouched.
          const Vec3 step{0.05f * params.radius * (rng.next_float() + 0.5f),
                          0.02f * params.radius * (rng.next_float() - 0.5f), 0.0f};
          for (const std::uint32_t id : movers) frame[id] += step;
          search.update_points(frame);
          NeighborSearch::Report report;
          (void)search.search(vehicle_queries(), params, &report);
          if (path.tiled) {
            touched += report.tiles_touched;
            ++tile_frames;
            lazy_builds += report.tile_lazy_builds;
            tile_count = std::max(tile_count, report.tile_count);
            tile_refits += report.tile_refits;
            tile_rebuilds += report.tile_rebuilds;
            tile_index_bytes = std::max(tile_index_bytes, report.index_total_bytes);
          }
          return report.time.bvh + report.time.refit;
        },
        {.work_items = static_cast<double>(n)});
    (path.tiled ? tiled_s : mono_s) = step_s;
  }

  const double touched_fraction =
      tile_frames && tile_count
          ? static_cast<double>(touched) /
                (static_cast<double>(tile_frames) * tile_count)
          : 0.0;
  ctx.metric("tiled.touched_tile_fraction", touched_fraction);
  ctx.metric("tiled.tile_count", tile_count);
  ctx.metric("tiled.tiles_touched_per_frame",
             tile_frames ? static_cast<double>(touched) / tile_frames : 0.0);
  ctx.metric("tiled.lazy_builds", static_cast<double>(lazy_builds));
  ctx.metric("tiled.tile_refits", tile_refits);
  ctx.metric("tiled.tile_rebuilds", tile_rebuilds);
  ctx.metric("tiled.tile_index_bytes", static_cast<double>(tile_index_bytes), "B");
  ctx.metric("speedup.index_update", mono_s / tiled_s, "x");
  std::printf(
      "%zu points, %zu movers: %u tiles, %.3f touched-fraction, "
      "index update %.5fs tiled vs %.5fs monolithic (%.2fx)\n",
      n, movers.size(), tile_count, touched_fraction, tiled_s, mono_s,
      mono_s / tiled_s);
}

RTNN_BENCH_CASE(dynamic_policy, "dynamic.policy",
                "Refit-vs-rebuild policy — correspondence-free lidar sweeps",
                "frames with no per-point correspondence inflate the refitted "
                "tree's SAH; the cost model must detect it and rebuild",
                "100k-point sweeps; policy counters, not timings") {
  data::LidarParams lidar;
  lidar.target_points = 100'000;
  lidar.seed = bench::mix_seed(ctx.seed(), 5);
  const data::LidarSweep sweep(lidar, /*frame_advance=*/1.5f);

  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.k = kFrameK;
  params.radius = 0.5f;  // ~K neighbors at this density
  params.opts = OptimizationFlags::none();

  NeighborSearch search;
  std::uint32_t refits = 0;
  std::uint32_t rebuilds = 0;
  double max_inflation = 1.0;
  constexpr std::uint32_t kFrames = 5;
  std::printf("%6s %8s %10s %14s\n", "frame", "action", "inflation", "step[s]");
  for (std::uint32_t t = 0; t < kFrames; ++t) {
    const data::PointCloud frame = sweep.frame(t);
    NeighborSearch::Report report;
    Timer timer;
    if (t == 0) {
      search.set_points(frame);
    } else {
      search.update_points(frame);  // every sweep has the same point count
    }
    (void)search.search(tracked_queries(frame), params, &report);
    const double seconds = timer.elapsed();
    refits += report.accel_refits;
    rebuilds += report.accel_rebuilds;
    max_inflation = std::max(max_inflation, report.sah_inflation);
    const char* action = report.accel_refits ? "refit"
                         : report.accel_rebuilds ? "rebuild"
                                                 : "build";
    std::printf("%6u %8s %10.3f %14.5f\n", t, action, report.sah_inflation, seconds);
  }
  ctx.metric("refits", refits);
  ctx.metric("rebuilds", rebuilds);
  ctx.metric("max_sah_inflation", max_inflation);
}
