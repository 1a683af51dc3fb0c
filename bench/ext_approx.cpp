// Extension experiment (paper section 8, "Approximate Neighbor Search"):
// the speed/recall trade-off of (a) shrinking AABBs below the exact width
// and (b) eliding the sphere test entirely.
//
// Paper: "Speedups from this approximation would be significant, given
// that Step 2 is much more costly than Step 1"; shrunken AABBs trade
// returned-neighbor count for time (section 3.2.2's sensitivity). Not a
// paper figure — this regenerates the future-work claims quantitatively.
#include <cstdio>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "rtnn/rtnn.hpp"

using namespace rtnn;

namespace {

std::uint64_t total_neighbors(const NeighborResult& result, std::size_t queries) {
  std::uint64_t total = 0;
  for (std::size_t q = 0; q < queries; ++q) total += result.count(q);
  return total;
}

}  // namespace

RTNN_BENCH_CASE(ext_approx, "ext.approx",
                "Extension — approximate search (paper section 8)",
                "smaller AABBs and an elided sphere test trade recall for speed, "
                "with a sqrt(3)*r error bound for the latter",
                "recall and IS calls fall with aabb_scale; elide-IS over-returns "
                "(>100%) but is cheapest per candidate") {
  bench::BenchDataset ds = bench::paper_dataset("Buddha-4.6M", ctx.scale(), 16, ctx.seed());
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = ds.radius;
  params.k = 64;
  params.store_indices = false;
  // Every sample is a cold search: the upload drops the accel the last
  // repeat kept.
  NeighborSearch search;
  const double nq = static_cast<double>(ds.points.size());

  // Exact reference.
  NeighborSearch::Report exact_report;
  std::uint64_t exact_total = 0;
  ctx.sample("exact",
             [&] {
               exact_report = {};
               search.set_points(ds.points);
               const auto exact = search.search(ds.points, params, &exact_report);
               exact_total = total_neighbors(exact, ds.points.size());
               return exact_report.time.total();
             },
             {.work_items = nq});

  std::printf("%12s %14s %12s %12s\n", "config", "search[s]", "recall", "IS calls");
  std::printf("%12s %14.3f %11.1f%% %12llu\n", "exact", exact_report.time.total(),
              100.0, static_cast<unsigned long long>(exact_report.stats.is_calls));

  for (const float aabb_scale : {0.8f, 0.6f, 0.4f}) {
    params.aabb_scale = aabb_scale;
    params.elide_sphere_test = false;
    char label[32];
    std::snprintf(label, sizeof(label), "scale=%.1f", aabb_scale);
    char timing_name[32];
    std::snprintf(timing_name, sizeof(timing_name), "aabb_scale%.1f", aabb_scale);
    NeighborSearch::Report report;
    std::uint64_t total = 0;
    ctx.sample(timing_name,
               [&] {
                 report = {};
                 search.set_points(ds.points);
                 const auto got = search.search(ds.points, params, &report);
                 total = total_neighbors(got, ds.points.size());
                 return report.time.total();
               },
               {.work_items = nq});
    const double recall =
        100.0 * static_cast<double>(total) / static_cast<double>(exact_total);
    ctx.metric(std::string("recall.") + label, recall, "%");
    std::printf("%12s %14.3f %11.1f%% %12llu\n", label, report.time.total(), recall,
                static_cast<unsigned long long>(report.stats.is_calls));
  }

  params.aabb_scale = 1.0f;
  params.elide_sphere_test = true;
  NeighborSearch::Report elide_report;
  std::uint64_t elided_total = 0;
  ctx.sample("elide_is",
             [&] {
               elide_report = {};
               search.set_points(ds.points);
               const auto elided = search.search(ds.points, params, &elide_report);
               elided_total = total_neighbors(elided, ds.points.size());
               return elide_report.time.total();
             },
             {.work_items = nq});
  const double elide_recall =
      100.0 * static_cast<double>(elided_total) / static_cast<double>(exact_total);
  ctx.metric("recall.elide_is", elide_recall, "%");
  std::printf("%12s %14.3f %11.1f%% %12llu  (neighbors within sqrt(3)r)\n", "elide-IS",
              elide_report.time.total(), elide_recall,
              static_cast<unsigned long long>(elide_report.stats.is_calls));

  std::puts("\nexpected shape: recall and IS calls fall with aabb_scale; elide-IS");
  std::puts("over-returns (>100%) but is cheapest per candidate.");
}
