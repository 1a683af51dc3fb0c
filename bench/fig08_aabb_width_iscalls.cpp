// Figure 8: number of IS-shader calls vs AABB width.
//
// Paper: IS calls grow *super-linearly* with AABB width — the AABB volume
// grows cubically, so the number of AABBs enclosing a query grows
// cubically too. Footnote 1 infers that time-per-IS-call is roughly
// constant because Figures 7 and 8 share the same trend; this harness
// verifies that inference directly (we can see the hidden traversal
// counters the paper could not).
#include <cmath>
#include <cstdio>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "datasets/point_cloud.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"

using namespace rtnn;

RTNN_BENCH_CASE(fig08, "fig08", "Figure 8 — IS calls vs AABB width",
                "IS calls grow cubically with AABB width; time per IS call ~constant",
                "the thin-z LiDAR slab flattens the exponent toward ~2 once widths "
                "exceed the z-extent") {
  bench::BenchDataset ds = bench::paper_dataset("KITTI-6M", ctx.scale(), 16, ctx.seed());
  const data::PointCloud queries = data::jittered_queries(
      ds.points, ds.points.size() / 4, 0.1f, bench::mix_seed(ctx.seed(), 13));

  std::printf("%12s %16s %16s %18s\n", "width[m]", "IS calls", "node visits",
              "ns per IS call");
  double prev_calls = 0.0;
  double prev_width = 0.0;
  std::vector<double> exponents;
  const struct { float width; const char* label; } sweeps[] = {
      {0.5f, "w0.5"}, {1.0f, "w1"}, {2.0f, "w2"},
      {4.0f, "w4"},   {8.0f, "w8"}, {16.0f, "w16"}};
  for (const auto& sweep : sweeps) {
    std::vector<Aabb> aabbs(ds.points.size());
    for (std::size_t i = 0; i < ds.points.size(); ++i) {
      aabbs[i] = Aabb::cube(ds.points[i], sweep.width);
    }
    rt::Bvh bvh;  // the binary walk below: built here, outside its timing
    bvh.build(aabbs);
    NeighborResult result(queries.size(), 0xffffff, /*store_indices=*/false);
    std::vector<std::uint32_t> ids(queries.size());
    for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    pipelines::RangePipeline pipeline(ds.points, queries, ids, sweep.width / 2.0f,
                                      0xffffff, false, result);
    ox::LaunchStats stats;
    // Binary walk: the figure's IS-call and node-visit columns count the
    // RT-core model's per-node work, which the wide SoA path coarsens.
    const double seconds = ctx.time(
        std::string("trace.") + sweep.label,
        [&] { stats = ox::launch(bvh, pipeline, static_cast<std::uint32_t>(queries.size())); },
        {.work_items = static_cast<double>(queries.size())});
    const double per_call =
        stats.is_calls ? 1e9 * seconds / static_cast<double>(stats.is_calls) : 0.0;
    ctx.metric(std::string("is_calls.") + sweep.label,
               static_cast<double>(stats.is_calls));
    ctx.metric(std::string("ns_per_is.") + sweep.label, per_call, "ns");
    std::printf("%12.1f %16llu %16llu %18.1f\n", sweep.width,
                static_cast<unsigned long long>(stats.is_calls),
                static_cast<unsigned long long>(stats.node_visits), per_call);
    if (prev_calls > 0.0 && stats.is_calls > 0) {
      exponents.push_back(std::log(static_cast<double>(stats.is_calls) / prev_calls) /
                          std::log(sweep.width / prev_width));
    }
    prev_calls = static_cast<double>(stats.is_calls);
    prev_width = sweep.width;
  }
  double mean_exp = 0.0;
  for (const double e : exponents) mean_exp += e;
  if (!exponents.empty()) mean_exp /= static_cast<double>(exponents.size());
  ctx.metric("growth_exponent", mean_exp);
  std::printf("\nmeasured growth exponent of IS calls vs width: %.2f "
              "(paper reasoning predicts ~3 in the volumetric regime;\n"
              " the thin-z LiDAR slab flattens toward ~2 once widths exceed the "
              "z-extent)\n", mean_exp);
}
