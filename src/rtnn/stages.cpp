#include "rtnn/stages.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/error.hpp"
#include "core/flat_knn.hpp"
#include "core/parallel.hpp"
#include "rtnn/partitioner.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/scheduler.hpp"
#include "rtnn/tile_plan.hpp"

namespace rtnn {

/// Everything one search() or search_with_plan() call accumulates: the
/// inputs init_context uploads, what each step leaves for the next, and
/// what the call returns.
struct SearchContext {
  /// One launch unit: query ids launched together against one accel.
  struct Unit {
    std::vector<std::span<const std::uint32_t>> id_spans;  // views, not copies
    float aabb_width = 0.0f;  // the launch width, aabb_scale applied
    bool skip_sphere_test = false;
  };

  std::span<const Vec3> points;
  std::vector<Vec3> queries;  // the "device" copy
  SearchParams params{};
  float base_width = 0.0f;           // 2r·aabb_scale, the naive AABB width
  std::vector<std::uint32_t> order;  // query-to-ray mapping (starts as iota)
  std::vector<Unit> units;           // what the launch step runs
  NeighborResult result;             // one K-slot row per query
  NeighborSearch::Report report;
};

namespace {

/// Builds a BVH over `points` with cubic AABBs of `aabb_width`, charging
/// the build to report.time.bvh.
ox::Accel build_accel_width(std::span<const Vec3> points, float aabb_width,
                            NeighborSearch::Report& report) {
  // AABB generation is part of the build (Listing 1, buildBVH).
  Timer timer;
  const ox::Context ctx;
  ox::Accel accel = ctx.build_accel(points, aabb_width);
  report.time.bvh += timer.elapsed();
  return accel;
}

/// Builds the two-level base accel: Morton-contiguous tiles from the tile
/// planner (plan_tiles), each owning its own bottom-level index, under a
/// top-level BVH. Charged to report.time.bvh like any other build; with
/// tiling.lazy_build only the tile bounds and top tree are paid here.
ox::Accel build_tiled_accel_width(std::span<const Vec3> points, const TileOptions& tiling,
                                  float aabb_width, NeighborSearch::Report& report) {
  Timer timer;
  // Tile membership: Morton-contiguous near-equal runs, so each tile is
  // a compact spatial region with a tight AABB for the top-level tree.
  const std::vector<std::vector<std::uint32_t>> tile_ids = plan_tiles(
      points, plan_tile_count(points.size(), tiling.tile_threshold, tiling.max_tiles));
  const ox::Context ctx;
  ox::TiledAccelOptions options;
  options.lazy_build = tiling.lazy_build;
  ox::Accel accel = ctx.build_tiled_accel(points, aabb_width, tile_ids, options);
  report.time.bvh += timer.elapsed();
  report.tile_count =
      std::max(report.tile_count, accel.tiled_bvh().tile_count());
  return accel;
}

/// A plan's bundles as launch units, widths scaled by `scale`.
std::vector<SearchContext::Unit> plan_units(const PartitionSet& set,
                                            const BundlePlan& plan, float scale) {
  std::vector<SearchContext::Unit> units;
  units.reserve(plan.bundles.size());
  for (const Bundle& bundle : plan.bundles) {
    SearchContext::Unit unit;
    unit.aabb_width = bundle.aabb_width * scale;
    unit.skip_sphere_test = bundle.skip_sphere_test;
    unit.id_spans.reserve(bundle.partition_indices.size());
    for (const std::uint32_t pi : bundle.partition_indices) {
      const auto& ids = set.partitions[pi].query_ids;
      if (!ids.empty()) unit.id_spans.emplace_back(ids);
    }
    // Skip empty bundles (caller-supplied plans may contain them)
    // before paying their O(N) BVH build.
    if (!unit.id_spans.empty()) units.push_back(std::move(unit));
  }
  return units;
}

void launch_chunk(SearchContext& ctx, const ox::Accel& accel, float built_width,
                  std::span<const std::uint32_t> ids, bool skip_sphere_test,
                  FlatKnnHeaps* heaps) {
  Timer timer;
  const auto width = static_cast<std::uint32_t>(ids.size());
  if (ctx.params.mode == SearchMode::kRange) {
    const bool skip_test = skip_sphere_test || ctx.params.elide_sphere_test;
    pipelines::RangePipeline pipeline(ctx.points, ctx.queries, ids, ctx.params.radius,
                                      ctx.params.k, skip_test, ctx.result);
    ctx.report.stats += ox::launch(accel, pipeline, width);
  } else {
    RTNN_CHECK(width <= heaps->num_rows(), "a launch chunk outgrew the KNN heap pool");
    pipelines::KnnPipeline pipeline(ctx.points, ctx.queries, ids, ctx.params.radius,
                                    *heaps, built_width);
    ctx.report.stats += ox::launch(accel, pipeline, width);
    // The chunk's rows, sorted into their queries' result rows, leave the
    // pool empty for the next chunk.
    parallel_for(0, width, [&](std::int64_t i) {
      const auto row = static_cast<std::size_t>(i);
      heaps->drain(row, ctx.result, ids[row]);
    }, 512);
  }
  ctx.report.time.search += timer.elapsed();
}

/// `built_width` is the AABB width `accel` was built with (the KNN
/// pipeline's cull bound is derived from it). `heaps` is the KNN chunk
/// pool (null for range search): row i holds launch index i's neighbors
/// until the chunk drains it into ctx.result.
void launch_unit(SearchContext& ctx, const ox::Accel& accel, float built_width,
                 const SearchContext::Unit& unit, FlatKnnHeaps* heaps) {
  // Stream the unit's ids through fixed-size chunks. Partition id lists
  // are consumed as views; only the scratch chunk is ever materialized.
  std::size_t total = 0;
  for (const auto& span : unit.id_spans) total += span.size();

  if (unit.id_spans.size() == 1 && total <= kLaunchChunkSize) {
    launch_chunk(ctx, accel, built_width, unit.id_spans.front(), unit.skip_sphere_test, heaps);
    return;
  }

  std::vector<std::uint32_t> chunk;
  chunk.reserve(std::min(total, kLaunchChunkSize));
  for (const auto& span : unit.id_spans) {
    std::size_t offset = 0;
    while (offset < span.size()) {
      const std::size_t take =
          std::min(kLaunchChunkSize - chunk.size(), span.size() - offset);
      chunk.insert(chunk.end(), span.begin() + offset, span.begin() + offset + take);
      offset += take;
      if (chunk.size() == kLaunchChunkSize) {
        launch_chunk(ctx, accel, built_width, chunk, unit.skip_sphere_test, heaps);
        chunk.clear();
      }
    }
  }
  if (!chunk.empty()) {
    launch_chunk(ctx, accel, built_width, chunk, unit.skip_sphere_test, heaps);
  }
}

}  // namespace

void NeighborSearch::init_context(SearchContext& ctx, std::span<const Vec3> queries,
                                  const SearchParams& params) const {
  RTNN_CHECK(!points_.empty(), "set_points() before search()");
  check_radius(params.radius);
  RTNN_CHECK(params.k > 0, "K must be positive");
  RTNN_CHECK(params.aabb_scale > 0.0f && params.aabb_scale <= 1.0f,
             "aabb_scale must be in (0, 1]");
  RTNN_CHECK(!params.elide_sphere_test || params.mode == SearchMode::kRange,
             "elide_sphere_test applies to range search only");

  ctx.points = points_;
  ctx.params = params;
  ctx.base_width = 2.0f * params.radius * params.aabb_scale;

  // Data phase: queries land in device memory.
  Timer timer;
  ctx.queries.assign(queries.begin(), queries.end());
  ctx.order.resize(ctx.queries.size());
  std::iota(ctx.order.begin(), ctx.order.end(), 0u);
  ctx.report.time.data += timer.elapsed();
}

NeighborResult NeighborSearch::search(std::span<const Vec3> queries,
                                      const SearchParams& params, Report* report_out) {
  SearchContext ctx;
  init_context(ctx, queries, params);
  const OptimizationFlags& opts = params.opts;

  // Section 4: spatially-ordered query scheduling.
  if (opts.scheduling) {
    ScopedAccumulator opt(ctx.report.time.opt);
    ctx.order = schedule_queries(ctx.queries).order;
  }

  // Sections 5.1-5.2: megacell partitioning, then bundling. Tiling
  // replaces megacell decomposition: both split the same launch
  // spatially, and partition-local accel builds would discard the tiled
  // index's per-tile reuse. Scheduling (query ordering) still composes.
  PartitionSet partitions;  // the launch units view its id lists
  if (opts.partitioning && !tiled()) {
    BundlePlan plan;
    {
      ScopedAccumulator opt(ctx.report.time.opt);
      partitions = partition(ctx.queries, ctx.order, params);
      plan = opts.bundling ? plan_bundles(partitions, points_.size(), params, CostModel{})
                           : unbundled_plan(partitions, params);
    }
    ctx.report.num_partitions = static_cast<std::uint32_t>(partitions.partitions.size());
    ctx.report.num_bundles = static_cast<std::uint32_t>(plan.bundles.size());
    ctx.units = plan_units(partitions, plan, params.aabb_scale);
  } else if (!ctx.order.empty()) {
    // Unpartitioned: one unit over the (possibly scheduled) order, at the
    // naive base width.
    ctx.units.push_back({{ctx.order}, ctx.base_width, false});
  }

  launch(ctx);
  if (report_out) *report_out = ctx.report;
  return std::move(ctx.result);
}

NeighborResult NeighborSearch::search_with_plan(std::span<const Vec3> queries,
                                                const SearchParams& params,
                                                const PartitionSet& partitions,
                                                const BundlePlan& plan, Report* report_out) {
  SearchContext ctx;
  init_context(ctx, queries, params);
  ctx.report.num_partitions = static_cast<std::uint32_t>(partitions.partitions.size());
  ctx.report.num_bundles = static_cast<std::uint32_t>(plan.bundles.size());
  ctx.units = plan_units(partitions, plan, params.aabb_scale);
  launch(ctx);
  if (report_out) *report_out = ctx.report;
  return std::move(ctx.result);
}

void NeighborSearch::sync_index_cache(float width, Report& report) {
  IndexCache& cache = index_cache_;
  const bool want_tiled = tiled();
  if (!cache.accel.built() || cache.width != width) {
    // First use since set_points() or set_tiling(), or a new radius: a
    // fresh build (which re-anchors the quality baseline).
    cache.accel = want_tiled ? build_tiled_accel_width(points_, tiling_, width, report)
                             : build_accel_width(points_, width, report);
    cache.width = width;
    cache.moved = false;
  } else if (cache.moved) {
    const CostModel model{};
    if (want_tiled) {
      // The per-tile form of the refit-vs-rebuild decision: only touched
      // tiles do any work, each judged on its *own* observed quality —
      // a tile under heavy motion rebuilds while its neighbors refit (or
      // stay untouched entirely).
      Timer timer;
      const rt::TiledUpdateStats us =
          cache.accel.update_tiled(points_, [&model](double inflation) {
            return choose_index_update(model, inflation) == IndexUpdate::kRefit
                       ? rt::TileUpdate::kRefit
                       : rt::TileUpdate::kRebuild;
          });
      // Phase split: per-tile rebuilds are BVH work, refits are refit
      // work; the shared overhead (touched detection, top-tree rebuild)
      // rides with refit — it is maintenance, not fresh construction.
      report.time.bvh += us.build_seconds;
      report.time.refit += std::max(0.0, timer.elapsed() - us.build_seconds);
      report.tiles_touched += us.tiles_touched;
      report.tile_refits += us.tile_refits;
      report.tile_rebuilds += us.tile_rebuilds;
    } else if (choose_index_update(model, cache.accel.sah_inflation()) ==
               IndexUpdate::kRefit) {
      // The per-frame decision: refit in place while it is cheaper and
      // the observed quality holds; otherwise pay a build to reset it.
      Timer timer;
      cache.accel.refit(points_, width);  // boxes computed in-loop
      report.time.refit += timer.elapsed();
      ++report.accel_refits;
    } else {
      cache.accel = build_accel_width(points_, width, report);
      ++report.accel_rebuilds;
    }
    cache.moved = false;
  }
  report.sah_inflation = cache.accel.sah_inflation();
  if (want_tiled) {
    report.tile_count =
        std::max(report.tile_count, cache.accel.tiled_bvh().tile_count());
  }
}

void NeighborSearch::launch(SearchContext& ctx) {
  // The base-width accel, shared by every launch unit at exactly that
  // width (the unpartitioned path, the sparse-fallback bundle), is the
  // one kept across searches.
  const auto at_base = [&](const SearchContext::Unit& unit) {
    return std::abs(unit.aabb_width - ctx.base_width) <= 1e-6f * ctx.params.radius;
  };
  // It is synced before the result rows and the KNN heap pool exist, so
  // its build scratch never coexists with them in peak memory.
  if (std::any_of(ctx.units.begin(), ctx.units.end(), at_base)) {
    sync_index_cache(ctx.base_width, ctx.report);
  }

  // Result storage: one K-slot row per query, written by the range
  // pipeline directly and by the KNN chunks' drains.
  ctx.result = NeighborResult(ctx.queries.size(), ctx.params.k, ctx.params.store_indices);

  // The KNN chunk pool: a row per launch index of a chunk.
  std::optional<FlatKnnHeaps> heaps;
  if (ctx.params.mode == SearchMode::kKnn) {
    heaps.emplace(std::min(ctx.queries.size(), kLaunchChunkSize), ctx.params.k);
  }

  for (const SearchContext::Unit& unit : ctx.units) {
    const bool is_base = at_base(unit);
    ox::Accel local;
    if (!is_base) local = build_accel_width(points_, unit.aabb_width, ctx.report);
    const ox::Accel* accel = is_base ? &index_cache_.accel : &local;
    // The KNN cull bound needs the width the traversed boxes were built
    // with: the shared accel's, not this unit's (they may differ by the
    // at_base tolerance).
    const float built_width = accel->is_tiled() ? accel->tiled_bvh().aabb_width()
                              : is_base         ? ctx.base_width
                                                : unit.aabb_width;
    const std::uint32_t built_before =
        accel->is_tiled() ? accel->tiled_bvh().built_tile_count() : 0;
    launch_unit(ctx, *accel, built_width, unit, heaps ? &*heaps : nullptr);
    // Footprint gauge: the byte cost of the node layout these launches
    // traversed. Taken after the launch so a lazy tiled index reports the
    // tiles the rays actually forced resident, not the pre-launch zero.
    if (accel->is_tiled()) {
      const rt::TiledBvh& tlas = accel->tiled_bvh();
      ctx.report.tile_lazy_builds += tlas.built_tile_count() - built_before;
      const rt::TiledBvhStats ts = tlas.stats();
      ctx.report.index_node_bytes = std::max(ctx.report.index_node_bytes, ts.node_bytes);
      ctx.report.index_total_bytes =
          std::max(ctx.report.index_total_bytes, ts.total_index_bytes);
    } else {
      const rt::WideBvhStats ws = accel->wide_bvh().stats();
      ctx.report.index_node_bytes = std::max(ctx.report.index_node_bytes, ws.node_bytes);
      ctx.report.index_total_bytes =
          std::max(ctx.report.index_total_bytes, ws.total_index_bytes);
    }
  }
}

namespace {

/// Shared scatter core: `row_of(merged_row)` names the batch-result row
/// that answers a merged row — identity for plain coalesced batches, the
/// optimizer's representative map for reordered/deduped ones.
template <typename RowOf>
std::vector<NeighborResult> scatter_batch_result(const NeighborResult& batch,
                                                 std::span<const BatchSlice> slices,
                                                 RowOf&& row_of) {
  std::vector<NeighborResult> results;
  results.reserve(slices.size());
  const bool indices = batch.stores_indices();
  for (const BatchSlice& slice : slices) {
    NeighborResult out(slice.count, batch.k(), indices);
    for (std::size_t q = 0; q < slice.count; ++q) {
      const std::size_t row = row_of(slice.first + q);
      RTNN_CHECK(row < batch.num_queries(), "batch slice exceeds the batch result");
      if (indices) {
        for (const std::uint32_t p : batch.neighbors(row)) out.record(q, p);
      } else {
        out.count_ref(q) = batch.count(row);
      }
    }
    results.push_back(std::move(out));
  }
  return results;
}

}  // namespace

std::vector<NeighborResult> split_batch_result(const NeighborResult& batch,
                                               std::span<const BatchSlice> slices) {
  return scatter_batch_result(batch, slices, [](std::size_t row) { return row; });
}

std::vector<NeighborResult> split_batch_result(const NeighborResult& batch,
                                               std::span<const BatchSlice> slices,
                                               std::span<const std::uint32_t> batch_rows) {
  return scatter_batch_result(batch, slices, [&](std::size_t row) {
    RTNN_CHECK(row < batch_rows.size(), "batch slice exceeds the row map");
    return static_cast<std::size_t>(batch_rows[row]);
  });
}

}  // namespace rtnn
