// Micro characterizations backing the paper's in-text claims:
//
//   §3.1 "Step 2 ... is much more expensive than Step 1 — an order of
//         magnitude slower in our experiments."
//   §3.1 short rays eliminate the false-positive IS calls of long rays
//         (Figure 4c).
//   plus two substrate ablations: warp-lockstep vs independent traversal
//   overhead, and BVH leaf size.
#include <algorithm>
#include <cstdio>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/flat_knn.hpp"
#include "datasets/uniform.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"

using namespace rtnn;

RTNN_BENCH_CASE(micro_steps, "micro.steps",
                "Micro — step costs, ray-length false positives, engine/leaf ablations",
                "Step 2 (IS) ~10x Step 1 (traversal); short rays avoid false-positive "
                "IS calls",
                "on RTX hardware Step 1 runs on dedicated RT cores; on this CPU "
                "substrate both are scalar code, so the per-event gap narrows") {
  const auto n = static_cast<std::size_t>(2e6 * ctx.scale() * 10);
  const data::PointCloud points =
      data::uniform_box(n, {{0, 0, 0}, {1, 1, 1}}, bench::mix_seed(ctx.seed(), 3));
  const float radius = bench::auto_radius(points, 16);
  std::vector<Aabb> aabbs(n);
  for (std::size_t i = 0; i < n; ++i) aabbs[i] = Aabb::cube(points[i], 2.0f * radius);
  const ox::Accel accel = ox::Context{}.build_accel(aabbs);
  rt::Bvh bvh;  // the binary walks below: built here, outside their timings
  bvh.build(aabbs);
  const std::size_t nq = n;
  std::vector<std::uint32_t> ids(nq);
  for (std::uint32_t i = 0; i < nq; ++i) ids[i] = i;

  // --- Step 1 vs Step 2 cost ---
  // Same launch measured twice: once with the IS body reduced to a no-op
  // counter (traversal-dominated) and once with the full sphere test +
  // priority queue (KNN IS shader).
  {
    struct TraversalOnly {
      std::span<const Vec3> queries;
      Ray raygen(std::uint32_t i) const { return Ray::short_ray(queries[i]); }
      // Empty IS body: the engine still performs the traversal and the
      // ray-AABB tests (Step 1); nothing shared is written (a shared sink
      // would serialize the cores on one cache line).
      ox::TraceAction intersection(std::uint32_t, std::uint32_t) {
        return ox::TraceAction::kContinue;
      }
    };
    TraversalOnly trav{points};
    // Binary walk, not the wide SoA path: the derived ns-per-node-visit /
    // ns-per-IS-call constants model the RT core popping the binary tree
    // (what the warp-lockstep simulation counts), so the counters must
    // keep that meaning.
    ox::LaunchStats stats;
    const double t_step1 = ctx.time(
        "step1_traversal",
        [&] { stats = ox::launch(bvh, trav, static_cast<std::uint32_t>(nq)); },
        {.work_items = static_cast<double>(nq)});

    FlatKnnHeaps heaps(nq, 16);
    struct KnnIs {
      std::span<const Vec3> points;
      std::span<const Vec3> queries;
      float r2;
      FlatKnnHeaps* heaps;
      Ray raygen(std::uint32_t i) const { return Ray::short_ray(queries[i]); }
      ox::TraceAction intersection(std::uint32_t i, std::uint32_t prim) {
        const float d2 = distance2(points[prim], queries[i]);
        if (d2 <= r2 && d2 < heaps->worst_dist2(i)) heaps->push(i, d2, prim);
        return ox::TraceAction::kContinue;
      }
    };
    KnnIs knn{points, points, radius * radius, &heaps};
    const double t_step2 = ctx.time(
        "step2_knn_is",
        [&] { ox::launch(bvh, knn, static_cast<std::uint32_t>(nq)); },
        {.work_items = static_cast<double>(nq)});

    const double step1_per_event =
        1e9 * t_step1 / static_cast<double>(stats.node_visits);
    const double step2_extra_per_is =
        1e9 * (t_step2 - t_step1) / static_cast<double>(stats.is_calls);
    ctx.metric("step1_ns_per_node_visit", step1_per_event, "ns");
    ctx.metric("step2_ns_per_is_call", step2_extra_per_is, "ns");
    ctx.metric("step2_over_step1", step2_extra_per_is / step1_per_event, "x");
    std::printf("Step 1 (traversal) per node visit: %8.1f ns\n", step1_per_event);
    std::printf("Step 2 (KNN IS body) per call:     %8.1f ns  -> ratio %.1fx\n",
                step2_extra_per_is, step2_extra_per_is / step1_per_event);
    std::puts("substrate note: on RTX hardware Step 1 runs on dedicated RT cores,");
    std::puts("making its effective cost ~10x below an SM-side IS call; on this CPU");
    std::puts("substrate both are scalar code, so the per-event gap narrows. The");
    std::puts("paper's Step1-vs-Step2 asymmetry is reproduced by the k3_slow:k3_fast");
    std::puts("ratio in micro_costmodel (sphere test vs bounds-only IS).");
  }

  // --- Short vs long rays: false-positive IS calls (Figure 4c) ---
  {
    struct RayLenProbe {
      std::span<const Vec3> queries;
      float tmax;
      Ray raygen(std::uint32_t i) const {
        return Ray{queries[i], {1.0f, 0.0f, 0.0f}, 0.0f, tmax};
      }
      ox::TraceAction intersection(std::uint32_t, std::uint32_t) {
        return ox::TraceAction::kContinue;
      }
    };
    RayLenProbe short_probe{points, 1e-16f};
    RayLenProbe long_probe{points, 10.0f * radius};
    const auto s_short =
        ox::launch(accel, short_probe, static_cast<std::uint32_t>(nq));
    const auto s_long = ox::launch(accel, long_probe, static_cast<std::uint32_t>(nq));
    const double factor = s_long.is_calls_per_ray() / s_short.is_calls_per_ray();
    ctx.metric("long_ray_false_positive_factor", factor, "x");
    std::printf("\nIS calls/query — short rays (tmax=1e-16): %.2f, long rays "
                "(tmax=10r): %.2f\n",
                s_short.is_calls_per_ray(), s_long.is_calls_per_ray());
    std::printf("long-ray false-positive factor: %.2fx (all extra IS calls are "
                "rejected by Step 2)\n", factor);
  }

  // --- Engine ablation: independent vs warp-lockstep wall clock ---
  {
    NeighborResult result(nq, 16, false);
    pipelines::RangePipeline pipeline(points, points, ids, radius, 16, false, result);
    const double t_ind = ctx.time(
        "engine.independent",
        [&] { ox::launch(accel, pipeline, static_cast<std::uint32_t>(nq)); },
        {.work_items = static_cast<double>(nq)});
    NeighborResult result2(nq, 16, false);
    pipelines::RangePipeline pipeline2(points, points, ids, radius, 16, false, result2);
    rt::TraceConfig lockstep;
    lockstep.model = rt::ExecutionModel::kWarpLockstep;
    const double t_simt = ctx.time(
        "engine.lockstep",
        [&] { ox::launch(bvh, pipeline2, static_cast<std::uint32_t>(nq), lockstep); },
        {.work_items = static_cast<double>(nq)});
    ctx.metric("lockstep_overhead", t_simt / t_ind, "x");
    std::printf("\nengine ablation: independent %.3fs vs warp-lockstep %.3fs "
                "(%.2fx lockstep overhead)\n",
                t_ind, t_simt, t_simt / t_ind);
  }

  // --- BVH leaf-size ablation ---
  {
    std::printf("\nleaf-size ablation (range search, K=16):\n");
    std::printf("%10s %12s %12s %14s\n", "leaf", "build[s]", "search[s]", "IS/query");
    for (const std::uint32_t leaf : {1u, 2u, 4u, 8u}) {
      ox::AccelBuildOptions build_opts;
      build_opts.leaf_size = leaf;
      const std::string suffix = "leaf" + std::to_string(leaf);
      ox::Accel a;
      const double t_build =
          ctx.time("build." + suffix,
                   [&] { a = ox::Context{}.build_accel(aabbs, build_opts); },
                   {.work_items = static_cast<double>(n)});
      NeighborResult result(nq, 16, false);
      pipelines::RangePipeline pipeline(points, points, ids, radius, 16, false, result);
      ox::LaunchStats stats;
      const double t_search = ctx.time(
          "search." + suffix,
          [&] { stats = ox::launch(a, pipeline, static_cast<std::uint32_t>(nq)); },
          {.work_items = static_cast<double>(nq)});
      std::printf("%10u %12.3f %12.3f %14.2f\n", leaf, t_build, t_search,
                  stats.is_calls_per_ray());
    }
  }
}
