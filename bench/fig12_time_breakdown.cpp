// Figure 12: end-to-end time distribution of RTNN across the five phases
// {Data, Opt, BVH, FS, Search}, for KNN (12a) and range search (12b).
//
// Paper: Search dominates on large inputs (e.g. 88.5% for KITTI-12M KNN,
// 63.5% for range); small inputs are dominated by non-search phases; the
// two NBody inputs spend >50% on Opt+BVH because their non-uniform density
// yields many partitions and BVH builds. The paper's FS phase is
// negligible on RT hardware; here it reads 0 by construction: the
// scheduler keys queries by their own Morton codes and casts no first-hit
// rays (rtnn/scheduler.hpp). The column stays so rows line up with the
// paper's figure.
#include <cstdio>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "rtnn/rtnn.hpp"

using namespace rtnn;

RTNN_BENCH_CASE(fig12, "fig12",
                "Figure 12 — RTNN time distribution {Data, Opt, BVH, FS, Search} [%]",
                "Search dominates large inputs; NBody spends >50% in Opt+BVH "
                "(non-uniform density -> many partitions)",
                "FS reads 0: queries are scheduled by their own Morton codes, "
                "with no first-hit launch") {
  for (const SearchMode mode : {SearchMode::kKnn, SearchMode::kRange}) {
    const char* mode_name = mode == SearchMode::kKnn ? "knn" : "range";
    std::printf("\n--- %s search ---\n", mode == SearchMode::kKnn ? "KNN" : "Range");
    std::printf("%-12s %6s %6s %6s %6s %6s   %10s %6s\n", "dataset", "Data", "Opt",
                "BVH", "FS", "Search", "total[s]", "#part");
    for (const char* name :
         {"KITTI-1M", "KITTI-6M", "KITTI-12M", "KITTI-25M", "NBody-9M", "NBody-10M",
          "Bunny-360K", "Dragon-3.6M", "Buddha-4.6M"}) {
      bench::BenchDataset ds = bench::paper_dataset(name, ctx.scale(), 16, ctx.seed());
      SearchParams params;
      params.mode = mode;
      params.radius = bench::paper_radius(name, ds);
      params.k = 16;
      params.store_indices = false;
      params.max_grid_cells = std::uint64_t{1} << 24;
      NeighborSearch search;
      // The sample is the summed phase breakdown of one cold search()
      // call: the upload drops the grid and the accel the last repeat
      // built. The report of the last repeat supplies the
      // (deterministic) breakdown.
      NeighborSearch::Report report;
      ctx.sample(std::string(mode_name) + "." + name,
                 [&] {
                   report = {};
                   search.set_points(ds.points);
                   search.search(ds.points, params, &report);
                   return report.time.total();
                 },
                 {.work_items = static_cast<double>(ds.points.size())});
      const double total = report.time.total();
      ctx.metric(std::string(mode_name) + "." + name + ".search_share",
                 total > 0 ? 100.0 * report.time.search / total : 0.0, "%");
      ctx.metric(std::string(mode_name) + "." + name + ".partitions",
                 report.num_partitions);
      std::printf("%-12s %s   %10.3f %6u\n", name, report.time.percent_row().c_str(),
                  report.time.total(), report.num_partitions);
    }
  }
  std::puts("\nexpected shape: Search share grows with input size; NBody rows have the");
  std::puts("largest Opt+BVH share. FS reads 0 by construction: queries are");
  std::puts("scheduled by their own Morton codes, with no first-hit launch.");
}
