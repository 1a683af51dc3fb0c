// Figure 6: why ordered searches are faster — L1/L2 hit rates and SM
// occupancy for raster-ordered vs randomly-ordered queries.
//
// Paper: ordered search has significantly higher L1/L2 cache hit rate and
// SM occupancy than the random-order search.
//
// Here: the warp-lockstep engine replays BVH-node/primitive fetches
// through the two-level cache simulator (single-threaded so the hierarchy
// is exact) and reports lane occupancy of the lockstep warps. The counters
// are deterministic, so this case records metrics, not timings.
#include <cstdio>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "datasets/uniform.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"

using namespace rtnn;

RTNN_BENCH_CASE(fig06, "fig06",
                "Figure 6 — L1/L2 hit rate and occupancy, raster vs random order",
                "raster: higher L1/L2 cache hit rates and higher SM occupancy than random",
                "per-level local L2 rates can invert under a near-perfect L1; DRAM/1k "
                "is the comparable memory-system signal") {
  bench::BenchDataset ds = bench::paper_dataset("KITTI-12M", ctx.scale(), 16, ctx.seed());

  // Build the paper's search BVH (AABB width 2r): the binary tree the
  // lockstep engine walks.
  std::vector<Aabb> aabbs(ds.points.size());
  for (std::size_t i = 0; i < ds.points.size(); ++i) {
    aabbs[i] = Aabb::cube(ds.points[i], 2.0f * ds.radius);
  }
  rt::Bvh bvh;
  bvh.build(aabbs);

  data::GridQueryParams gq;
  gq.resolution = 96;
  gq.box = data::bounds(ds.points);
  gq.seed = bench::mix_seed(ctx.seed(), 7);
  data::PointCloud raster = data::grid_queries_raster(gq);
  data::PointCloud random = raster;
  data::shuffle(random, bench::mix_seed(ctx.seed(), 8));

  auto run = [&](const data::PointCloud& queries, const char* label) {
    NeighborResult result(queries.size(), 16, /*store_indices=*/false);
    std::vector<std::uint32_t> ids(queries.size());
    for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    pipelines::RangePipeline pipeline(ds.points, queries, ids, ds.radius, 16,
                                      /*skip_sphere_test=*/false, result);
    rt::TraceConfig config;
    config.model = rt::ExecutionModel::kWarpLockstep;
    config.simulate_caches = true;  // one thread, one shared hierarchy: exact
    const auto stats =
        ox::launch(bvh, pipeline, static_cast<std::uint32_t>(queries.size()), config);
    const double dram_per_k =
        1000.0 *
        static_cast<double>(stats.l2.accesses - stats.l2.hits) /
        static_cast<double>(stats.l1.accesses);
    const std::string prefix = label;
    ctx.metric(prefix + ".l1_hit", 100.0 * stats.l1.hit_rate(), "%");
    ctx.metric(prefix + ".l2_hit_local", 100.0 * stats.l2.hit_rate(), "%");
    ctx.metric(prefix + ".dram_per_1k", dram_per_k);
    ctx.metric(prefix + ".occupancy", 100.0 * stats.occupancy(), "%");
    std::printf("%8s %12.1f%% %12.1f%% %12.1f %14.1f%%\n", label,
                100.0 * stats.l1.hit_rate(), 100.0 * stats.l2.hit_rate(), dram_per_k,
                100.0 * stats.occupancy());
  };

  std::printf("%8s %13s %13s %12s %15s\n", "order", "L1 hit", "L2 hit(local)",
              "DRAM/1k", "occupancy");
  run(raster, "raster");
  run(random, "random");
  std::puts("\nexpected shape: raster has higher L1 hit rate, lower DRAM traffic and");
  std::puts("higher occupancy. (Local L2 hit rate can invert here: a near-perfect L1");
  std::puts("leaves L2 only compulsory misses — an artifact of per-level local rates;");
  std::puts("the paper's profiler reports global rates, hence DRAM/1k is the");
  std::puts("comparable memory-system signal.)");
}
