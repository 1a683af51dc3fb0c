// Figure 14: sensitivity of RTNN's speedup to the search radius r (14a)
// and the neighbor count K (14b), on Buddha-4.6M.
//
// Paper: speedup rises with r at first (more accelerable work), then falls
// once the sphere covers most of the scene (search terminates quickly and
// RTNN's setup overheads dominate) while staying >1; speedup grows with K
// until very large K (128), where the bundling algorithm over-merges.
#include <algorithm>
#include <cstdio>

#include "baselines/grid_search.hpp"
#include "baselines/octree.hpp"
#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "engine/backends.hpp"
#include "rtnn/rtnn.hpp"

using namespace rtnn;

RTNN_BENCH_CASE(fig14, "fig14", "Figure 14 — sensitivity to r and K (Buddha)",
                "speedup rises then falls with r (still >1); rises with K, degrading "
                "only at K=128",
                "FastRNN extrapolated from a 10% query probe") {
  bench::BenchDataset ds = bench::paper_dataset("Buddha-4.6M", ctx.scale(), 16, ctx.seed());
  const auto& points = ds.points;
  const double nq = static_cast<double>(points.size());

  // --- 14a: sweep r (Buddha lives in a unit cube, like the paper's) ---
  std::printf("\n--- 14a: range-search speedup vs r (K = 16) ---\n");
  std::printf("%10s %12s %14s %14s\n", "r", "rtnn[s]", "vs PCLOctree", "vs cuNSearch");
  const struct { float r; const char* label; } r_sweeps[] = {
      {0.00124f, "r0.00124"}, {0.0062f, "r0.0062"}, {0.0124f, "r0.0124"},
      {0.062f, "r0.062"},     {0.124f, "r0.124"}};
  for (const auto& sweep : r_sweeps) {
    SearchParams params;
    params.mode = SearchMode::kRange;
    params.radius = sweep.r;
    params.k = 16;
    params.store_indices = false;
    NeighborSearch search;
    const double t_rtnn = ctx.time(std::string("14a.rtnn.") + sweep.label,
                                   [&] {
                                     search.set_points(points);
                                     search.search(points, params);
                                   },
                                   {.work_items = nq});
    const double t_octree = ctx.time(std::string("14a.octree.") + sweep.label,
                                     [&] {
                                       baselines::Octree octree;
                                       octree.build(points);
                                       octree.range_search(points, sweep.r, 16);
                                     },
                                     {.work_items = nq});
    const double t_grid = ctx.time(std::string("14a.grid.") + sweep.label,
                                   [&] {
                                     baselines::GridRangeSearch grid;
                                     grid.build(points, sweep.r);
                                     grid.range_search(points, 16);
                                   },
                                   {.work_items = nq});
    ctx.metric(std::string("14a.speedup.octree.") + sweep.label, t_octree / t_rtnn, "x");
    ctx.metric(std::string("14a.speedup.grid.") + sweep.label, t_grid / t_rtnn, "x");
    std::printf("%10.5f %12.3f %13.1fx %13.1fx\n", sweep.r, t_rtnn, t_octree / t_rtnn,
                t_grid / t_rtnn);
  }

  // --- 14b: sweep K at the auto radius ---
  std::printf("\n--- 14b: KNN speedup vs K (r = %.4f) ---\n", ds.radius);
  std::printf("%10s %12s %14s %14s\n", "K", "rtnn[s]", "vs FRNN", "vs FastRNN*");
  for (const std::uint32_t k : {1u, 4u, 16u, 64u, 128u}) {
    const std::string label = "k" + std::to_string(k);
    SearchParams params;
    params.mode = SearchMode::kKnn;
    params.radius = ds.radius;
    params.k = k;
    params.store_indices = false;
    NeighborSearch search;
    const double t_rtnn = ctx.time("14b.rtnn." + label,
                                   [&] {
                                     search.set_points(points);
                                     search.search(points, params);
                                   },
                                   {.work_items = nq});
    const double t_frnn = ctx.time("14b.frnn." + label,
                                   [&] {
                                     baselines::GridRangeSearch grid;
                                     grid.build(points, ds.radius);
                                     grid.knn_search(points, k);
                                   },
                                   {.work_items = nq});
    // FastRNN probed on 10% of queries and extrapolated. It keeps the
    // neighbor ids (the original FastRNN returns neighbor lists).
    const std::size_t probe = std::max<std::size_t>(points.size() / 10, 1000);
    const std::span<const Vec3> probe_queries(points.data(),
                                              std::min(probe, points.size()));
    SearchParams naive = params;
    naive.store_indices = true;
    const double t_probe = ctx.time("14b.fastrnn_probe." + label,
                                    [&] {
                                      engine::FastRnnBackend fastrnn;
                                      fastrnn.set_points(points);
                                      fastrnn.search(probe_queries, naive, nullptr);
                                    },
                                    {.work_items = static_cast<double>(probe_queries.size())});
    const double t_fast =
        t_probe * static_cast<double>(points.size()) /
        static_cast<double>(probe_queries.size());
    ctx.metric("14b.speedup.frnn." + label, t_frnn / t_rtnn, "x");
    ctx.metric("14b.speedup.fastrnn." + label, t_fast / t_rtnn, "x");
    std::printf("%10u %12.3f %13.1fx %13.1fx\n", k, t_rtnn, t_frnn / t_rtnn,
                t_fast / t_rtnn);
  }
  std::puts("\nexpected shape: 14a speedup peaks at moderate r and decays (stays >1);");
  std::puts("14b speedup grows with K, flattening/degrading at the largest K.");
  std::puts("(* FastRNN extrapolated from a 10% query probe.)");
}
