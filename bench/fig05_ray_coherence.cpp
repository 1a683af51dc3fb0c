// Figure 5: search time vs number of queries, raster-scan-ordered vs
// randomly-ordered rays.
//
// Paper: "Searching with arbitrarily-ordered rays is consistently ~5 times
// slower compared to searching with coherent rays" (RTX 2080Ti, KITTI
// points, 0.27M-27M queries).
//
// Here: LiDAR points, queries assigned uniformly to grid cells and emitted
// in raster order vs shuffled. Only the Search phase is timed (the BVH is
// identical for both orders), min over the runner's repeats. Both engines
// are reported: the independent-traversal engine (a NeighborSearch) shows
// the effect through the CPU memory hierarchy; the warp-lockstep SIMT
// engine (one launch over the binary BVH of the same boxes) adds the
// control-flow divergence penalty the RT hardware pays.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/timing.hpp"
#include "datasets/uniform.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/rtnn.hpp"

using namespace rtnn;

RTNN_BENCH_CASE(fig05, "fig05",
                "Figure 5 — ray coherence: ordered vs random query order",
                "random order ~4-5x slower than raster order, across 0.27M-27M queries",
                "SIMT wall-clock and gpu-cost ratios > 1; the independent CPU engine "
                "shows little of the gap (it comes from divergence)") {
  // This characterization needs a working set larger than the CPU caches;
  // use the biggest KITTI configuration.
  bench::BenchDataset ds = bench::paper_dataset("KITTI-25M", ctx.scale(), 64, ctx.seed());

  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = ds.radius;
  params.k = 64;
  params.opts = OptimizationFlags::none();  // direct query-to-ray mapping
  params.store_indices = false;

  NeighborSearch search;
  search.set_points(ds.points);
  // The SIMT engine's tree: the binary BVH over the search's own boxes
  // (width 2r), built here, outside its timing.
  std::vector<Aabb> aabbs(ds.points.size());
  for (std::size_t i = 0; i < ds.points.size(); ++i) {
    aabbs[i] = Aabb::cube(ds.points[i], 2.0f * ds.radius);
  }
  rt::Bvh bvh;
  bvh.build(aabbs);
  rt::TraceConfig lockstep;
  lockstep.model = rt::ExecutionModel::kWarpLockstep;

  // Each independent sample is the Search-phase time of one full search()
  // call; each SIMT sample is one lockstep launch over every query. The
  // warp-substep counters are deterministic per input, so reading them
  // from the last repeat is exact.
  std::uint64_t substeps = 0;
  auto run = [&](const data::PointCloud& queries, const std::string& name) {
    return ctx.sample(name,
                      [&] {
                        NeighborSearch::Report report;
                        search.search(queries, params, &report);
                        return report.time.search;
                      },
                      {.work_items = static_cast<double>(queries.size())});
  };
  auto run_simt = [&](const data::PointCloud& queries, const std::string& name) {
    std::vector<std::uint32_t> ids(queries.size());
    std::iota(ids.begin(), ids.end(), 0u);
    return ctx.sample(name,
                      [&] {
                        NeighborResult result(queries.size(), params.k, params.store_indices);
                        pipelines::RangePipeline pipeline(ds.points, queries, ids, ds.radius,
                                                          params.k, /*skip_sphere_test=*/false,
                                                          result);
                        Timer timer;
                        substeps = ox::launch(bvh, pipeline,
                                              static_cast<std::uint32_t>(ids.size()), lockstep)
                                       .warp_substeps;
                        return timer.elapsed();
                      },
                      {.work_items = static_cast<double>(queries.size())});
  };

  std::printf("%12s %12s %12s %7s %12s %12s %7s %9s\n", "queries", "raster[s]",
              "random[s]", "ratio", "simt-ra[s]", "simt-rnd[s]", "ratio",
              "gpu-cost");
  const Aabb box = data::bounds(ds.points);
  const struct { double mq; const char* label; } sweeps[] = {
      {0.27, "0.27M"}, {0.75, "0.75M"}, {1.5, "1.5M"}, {2.7, "2.7M"}};
  for (const auto& sweep : sweeps) {
    const auto res =
        static_cast<std::uint32_t>(std::cbrt(sweep.mq * 1e6 * ctx.scale() * 20.0));
    data::GridQueryParams gq;
    gq.resolution = res;
    gq.box = box;
    gq.seed = bench::mix_seed(ctx.seed(), 5);
    data::PointCloud raster = data::grid_queries_raster(gq);
    data::PointCloud random = raster;
    data::shuffle(random, bench::mix_seed(ctx.seed(), 6));

    const std::string sz = sweep.label;
    const double ind_raster = run(raster, "ind.raster." + sz);
    const double ind_random = run(random, "ind.random." + sz);
    const double simt_raster = run_simt(raster, "simt.raster." + sz);
    const std::uint64_t raster_substeps = substeps;
    const double simt_random = run_simt(random, "simt.random." + sz);
    // "gpu-cost" = ratio of serialized warp sub-steps, the substrate's
    // cycle-count analog of the hardware's SIMT execution time.
    const double gpu_cost =
        static_cast<double>(substeps) / static_cast<double>(raster_substeps);
    ctx.metric("gpu_cost." + sz, gpu_cost, "x");
    ctx.metric("simt_ratio." + sz, simt_random / simt_raster, "x");
    std::printf("%12zu %12.4f %12.4f %7.2f %12.4f %12.4f %7.2f %8.2fx\n",
                raster.size(), ind_raster, ind_random, ind_random / ind_raster,
                simt_raster, simt_random, simt_random / simt_raster, gpu_cost);
  }
  std::puts("\nexpected shape: SIMT wall-clock and gpu-cost ratios > 1 (the paper's");
  std::puts("4-5x gap is a SIMT-hardware effect; the independent CPU engine shows");
  std::puts("little of it, which is itself evidence the gap comes from divergence).");
}
