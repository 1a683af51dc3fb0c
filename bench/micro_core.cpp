// Micro suite for the substrate primitives: BVH build and traversal,
// uniform grid, octree, radix sort, Morton encoding, KNN heap. These are
// the per-operation costs behind every figure harness.
//
// Formerly a Google Benchmark binary; now registered cases on the native
// runner, so the whole suite ships in one rtnn_bench binary with no
// external benchmark dependency. Sizes scale with the runner's --scale so
// the CI smoke run stays fast (scale 0.02 reproduces the historical
// 10k/100k/1M arguments).
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>

#include "baselines/grid_search.hpp"
#include "baselines/octree.hpp"
#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "core/flat_knn.hpp"
#include "core/morton.hpp"
#include "core/rng.hpp"
#include "core/sort.hpp"
#include "datasets/uniform.hpp"
#include "rtcore/bvh.hpp"
#include "rtcore/traversal.hpp"
#include "rtcore/wide_bvh.hpp"

using namespace rtnn;

namespace {

data::PointCloud cloud(std::size_t n, std::uint64_t seed) {
  return data::uniform_box(n, {{0, 0, 0}, {1, 1, 1}}, bench::mix_seed(seed, 12345));
}

std::vector<Aabb> point_aabbs(const data::PointCloud& points, float width) {
  std::vector<Aabb> aabbs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    aabbs[i] = Aabb::cube(points[i], width);
  }
  return aabbs;
}

struct NullProgram {
  std::uint64_t sink = 0;
  rt::TraceAction intersect(std::uint32_t, std::uint32_t prim) {
    sink += prim;
    return rt::TraceAction::kContinue;
  }
};

void print_row(const char* op, std::size_t n, double seconds) {
  std::printf("%-24s %10zu %12.3f ms %12.1f ns/item\n", op, n, 1e3 * seconds,
              n ? 1e9 * seconds / static_cast<double>(n) : 0.0);
}

}  // namespace

RTNN_BENCH_CASE(micro_core, "micro.core",
                "Micro — substrate primitives (BVH, grid, octree, sort, Morton, heap)",
                "per-operation costs behind every figure harness",
                "sizes scale with --scale; 0.02 reproduces the historical "
                "10k/100k/1M arguments") {
  // At the default scale of 0.02 the multiplier is 1.0.
  const double mult = ctx.scale() * 50.0;
  auto sz = [&](double n) {
    return static_cast<std::size_t>(std::max(1000.0, n * mult));
  };
  std::printf("%-24s %10s %15s %20s\n", "op", "items", "time(min)", "per item");

  // --- BVH build ---
  for (const double base : {10e3, 100e3, 1000e3}) {
    const std::size_t n = sz(base);
    const auto aabbs = point_aabbs(cloud(n, ctx.seed()), 0.02f);
    const std::string label = "bvh_build." + std::to_string(static_cast<int>(base / 1e3)) + "k";
    const double s = ctx.time(label,
                              [&] {
                                rt::Bvh bvh;
                                bvh.build(aabbs);
                              },
                              {.work_items = static_cast<double>(n)});
    print_row(label.c_str(), n, s);
  }

  // --- Traversal: independent (compressed wide + binary) and
  // warp-lockstep ---
  // `traversal_compressed.*` measures the production wide walk over the
  // quantized 80-byte node layout; `traversal_binary.*` keeps the binary
  // walk for reference (it is also what the warp-lockstep simulation pops
  // node by node).
  for (const double base : {10e3, 100e3}) {
    const std::size_t n = sz(base);
    const auto points = cloud(n, ctx.seed());
    rt::Bvh bvh;
    bvh.build(point_aabbs(points, 0.03f));
    rt::WideBvh wide;
    wide.build(bvh);
    std::vector<Ray> rays;
    rays.reserve(points.size());
    for (const Vec3& p : points) rays.push_back(Ray::short_ray(p));
    NullProgram program;
    const std::string suffix = std::to_string(static_cast<int>(base / 1e3)) + "k";
    const double s_comp = ctx.time("traversal_compressed." + suffix,
                                   [&] { rt::trace(wide, rays, program); },
                                   {.work_items = static_cast<double>(n)});
    print_row(("traversal_compressed." + suffix).c_str(), n, s_comp);
    const double s_bin = ctx.time("traversal_binary." + suffix,
                                  [&] { rt::trace(bvh, rays, program); },
                                  {.work_items = static_cast<double>(n)});
    print_row(("traversal_binary." + suffix).c_str(), n, s_bin);
    rt::TraceConfig config;
    config.model = rt::ExecutionModel::kWarpLockstep;
    const double s_simt = ctx.time("traversal_simt." + suffix,
                                   [&] { rt::trace(bvh, rays, program, config); },
                                   {.work_items = static_cast<double>(n)});
    print_row(("traversal_simt." + suffix).c_str(), n, s_simt);

    // Index footprint of the wide tree, and the modeled cache misses of
    // walking the same rays at its true byte size.
    ctx.metric("index_bytes.compressed." + suffix,
               static_cast<double>(wide.stats().total_index_bytes), "B");
    rt::TraceConfig sim;
    sim.simulate_caches = true;
    const rt::LaunchStats sim_stats = rt::trace(wide, rays, program, sim);
    ctx.metric("modeled_misses.compressed." + suffix,
               static_cast<double>((sim_stats.l1.accesses - sim_stats.l1.hits) +
                                   (sim_stats.l2.accesses - sim_stats.l2.hits)));
  }

  // --- Wide-BVH collapse (amortized into every accel build) ---
  {
    const std::size_t n = sz(1000e3);
    rt::Bvh bvh;
    bvh.build(point_aabbs(cloud(n, ctx.seed()), 0.02f));
    const double s = ctx.time("wide_collapse.1000k",
                              [&] {
                                rt::WideBvh wide;
                                wide.build(bvh);
                              },
                              {.work_items = static_cast<double>(n)});
    print_row("wide_collapse.1000k", n, s);
  }

  // --- Uniform grid ---
  for (const double base : {100e3, 1000e3}) {
    const std::size_t n = sz(base);
    const auto points = cloud(n, ctx.seed());
    const std::string suffix = std::to_string(static_cast<int>(base / 1e3)) + "k";
    const double s = ctx.time("grid_build." + suffix,
                              [&] {
                                baselines::GridRangeSearch grid;
                                grid.build(points, 0.02f);
                              },
                              {.work_items = static_cast<double>(n)});
    print_row(("grid_build." + suffix).c_str(), n, s);
  }
  {
    const std::size_t n = sz(100e3);
    const auto points = cloud(n, ctx.seed());
    baselines::GridRangeSearch grid;
    grid.build(points, 0.02f);
    const double s = ctx.time("grid_range_query.100k",
                              [&] { grid.range_search(points, 16); },
                              {.work_items = static_cast<double>(n)});
    print_row("grid_range_query.100k", n, s);
  }

  // --- Octree ---
  for (const double base : {100e3, 1000e3}) {
    const std::size_t n = sz(base);
    const auto points = cloud(n, ctx.seed());
    const std::string suffix = std::to_string(static_cast<int>(base / 1e3)) + "k";
    const double s = ctx.time("octree_build." + suffix,
                              [&] {
                                baselines::Octree octree;
                                octree.build(points);
                              },
                              {.work_items = static_cast<double>(n)});
    print_row(("octree_build." + suffix).c_str(), n, s);
  }
  {
    const std::size_t n = sz(100e3);
    const auto points = cloud(n, ctx.seed());
    baselines::Octree octree;
    octree.build(points);
    const double s = ctx.time("octree_knn_query.100k",
                              [&] { octree.knn_search(points, 0.05f, 8); },
                              {.work_items = static_cast<double>(n)});
    print_row("octree_knn_query.100k", n, s);
  }

  // --- Radix sort (key-value pairs) ---
  for (const double base : {100e3, 1000e3}) {
    const std::size_t n = sz(base);
    Pcg32 rng(bench::mix_seed(ctx.seed(), 7));
    std::vector<std::uint64_t> keys(n);
    for (auto& k : keys) k = rng.next_u64();
    const std::string suffix = std::to_string(static_cast<int>(base / 1e3)) + "k";
    const double s = ctx.time("radix_sort_pairs." + suffix,
                              [&] {
                                auto k = keys;
                                std::vector<std::uint32_t> v(n);
                                std::iota(v.begin(), v.end(), 0u);
                                radix_sort_pairs(k, v);
                              },
                              {.work_items = static_cast<double>(n)});
    print_row(("radix_sort_pairs." + suffix).c_str(), n, s);
  }

  // --- Morton encoding ---
  {
    const std::size_t n = sz(100e3);
    const auto points = cloud(n, ctx.seed());
    const Aabb bounds{{0, 0, 0}, {1, 1, 1}};
    volatile std::uint64_t sink = 0;
    const double s = ctx.time("morton63.100k",
                              [&] {
                                std::uint64_t sum = 0;
                                for (const Vec3& p : points) sum += morton3d_63(p, bounds);
                                sink = sum;
                              },
                              {.work_items = static_cast<double>(n)});
    (void)sink;
    print_row("morton63.100k", n, s);
  }

  // --- FlatKnnHeaps push ---
  {
    Pcg32 rng(bench::mix_seed(ctx.seed(), 9));
    const std::size_t heaps_n = 1000;
    std::vector<float> dists(sz(100e3));
    for (auto& d : dists) d = rng.next_float();
    volatile float sink = 0.0f;  // keeps the fully-inline push loop observable
    const double s = ctx.time("flat_knn_heap_push.100k",
                              [&] {
                                FlatKnnHeaps heaps(heaps_n, 16);
                                for (std::size_t i = 0; i < dists.size(); ++i) {
                                  heaps.push(i % heaps_n, dists[i],
                                             static_cast<std::uint32_t>(i));
                                }
                                sink = heaps.worst_dist2(0);
                              },
                              {.work_items = static_cast<double>(dists.size())});
    (void)sink;
    print_row("flat_knn_heap_push.100k", dists.size(), s);
  }
}
