#include "rtnn/stages.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "rtnn/partitioner.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/scheduler.hpp"
#include "rtnn/tile_plan.hpp"

namespace rtnn {

void ensure_grid_built(std::span<const Vec3> points, const SearchParams& params,
                       GridIndex& grid, std::uint64_t& built_cap) {
  // Cap the grid at ~128 cells per point: far finer cells cannot sharpen
  // the megacell estimate and the SAT would dominate small datasets.
  const std::uint64_t useful =
      std::max<std::uint64_t>(4096, 128 * static_cast<std::uint64_t>(points.size()));
  const std::uint64_t cap = std::min(params.max_grid_cells, useful);
  // A built grid has cap >= 8 (GridIndex::build rejects less), so 0 never
  // matches a built cap.
  if (built_cap != 0 && built_cap == cap) return;
  grid.build(points, cap);
  built_cap = cap;
}

namespace {

std::vector<Aabb> point_cubes(std::span<const Vec3> points, float width) {
  std::vector<Aabb> aabbs(points.size());
  parallel_for(0, static_cast<std::int64_t>(points.size()), [&](std::int64_t i) {
    aabbs[static_cast<std::size_t>(i)] =
        Aabb::cube(points[static_cast<std::size_t>(i)], width);
  }, grain::kElementwise);
  return aabbs;
}

}  // namespace

ox::Accel SearchContext::build_accel_width(float aabb_width) {
  // AABB generation is part of the build (Listing 1, buildBVH).
  Timer timer;
  const std::vector<Aabb> aabbs = point_cubes(points, aabb_width);
  const ox::Context ctx;
  ox::Accel accel = ctx.build_accel(aabbs);
  report.time.bvh += timer.elapsed();
  return accel;
}

ox::Accel SearchContext::build_tiled_accel_width(float aabb_width) {
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

void SearchContext::sync_index_cache() {
  IndexCache& cache = *index_cache;
  const bool want_tiled = tiled_active();
  const bool reusable =
      cache.accel.built() && cache.count == points.size() &&
      cache.width == base_width && cache.tiled == want_tiled &&
      (!want_tiled ||
       (cache.tiling.tile_threshold == tiling.tile_threshold &&
        cache.tiling.max_tiles == tiling.max_tiles &&
        cache.tiling.lazy_build == tiling.lazy_build));
  if (!reusable) {
    // New cloud, new radius, new decomposition, or first use: a fresh
    // build is the only option (and re-anchors the quality baseline).
    cache.accel =
        want_tiled ? build_tiled_accel_width(base_width) : build_accel_width(base_width);
    cache.width = base_width;
    cache.count = points.size();
    cache.moved = false;
    cache.tiled = want_tiled;
    cache.tiling = tiling;
  } else if (cache.moved) {
    if (want_tiled) {
      // The per-tile form of the refit-vs-rebuild decision: only touched
      // tiles do any work, each judged on its *own* observed quality —
      // a tile under heavy motion rebuilds while its neighbors refit (or
      // stay untouched entirely).
      Timer timer;
      const CostModel* model = cost_model;
      const rt::TiledUpdateStats us =
          cache.accel.update_tiled(points, [model](double inflation) {
            return choose_index_update(*model, inflation) == IndexUpdate::kRefit
                       ? rt::TileUpdate::kRefit
                       : rt::TileUpdate::kRebuild;
          });
      // Phase split: per-tile rebuilds are BVH work, refits are refit
      // work; the shared overhead (touched detection, top-tree rebuild)
      // rides with refit — it is maintenance, not fresh construction.
      report.time.bvh += us.build_seconds;
      report.time.refit +=
          std::max(0.0, timer.elapsed() - us.build_seconds);
      report.tiles_touched += us.tiles_touched;
      report.tile_refits += us.tile_refits;
      report.tile_rebuilds += us.tile_rebuilds;
    } else if (choose_index_update(*cost_model, cache.accel.sah_inflation()) ==
               IndexUpdate::kRefit) {
      // The per-frame decision: refit in place while it is cheaper and
      // the observed quality holds; otherwise pay a build to reset it.
      Timer timer;
      cache.accel.refit(points, base_width);  // boxes computed in-loop
      report.time.refit += timer.elapsed();
      ++report.accel_refits;
    } else {
      cache.accel = build_accel_width(base_width);
      ++report.accel_rebuilds;
    }
    cache.moved = false;
  }
  report.sah_inflation = cache.accel.sah_inflation();
  if (cache.tiled) {
    report.tile_count =
        std::max(report.tile_count, cache.accel.tiled_bvh().tile_count());
  }
}

const ox::Accel& SearchContext::acquire_global_accel() {
  if (index_cache) {
    sync_index_cache();
    return index_cache->accel;
  }
  if (!global_accel.built()) {
    global_accel = tiled_active() ? build_tiled_accel_width(base_width)
                                  : build_accel_width(base_width);
  }
  return global_accel;
}

void ScheduleStage::run(SearchContext& ctx) {
  const ox::Accel& accel = ctx.acquire_global_accel();
  // The first-hit cast routes rays too: tiles it reaches lazily build
  // here, and belong in the same build-on-first-route count.
  const std::uint32_t built_before =
      accel.is_tiled() ? accel.tiled_bvh().built_tile_count() : 0;
  ScheduleResult sched = schedule_queries(accel, ctx.points, ctx.queries);
  if (accel.is_tiled()) {
    ctx.report.tile_lazy_builds += accel.tiled_bvh().built_tile_count() - built_before;
  }
  ctx.order = std::move(sched.order);
  ctx.report.first_hit_stats = sched.first_hit_stats;
  ctx.report.time.first_search += sched.first_hit_seconds;
  ctx.report.time.opt += sched.sort_seconds;
}

void PartitionStage::run(SearchContext& ctx) {
  RTNN_CHECK(ctx.grid != nullptr && ctx.grid_cap != nullptr,
             "PartitionStage needs the owner's grid cache");
  ensure_grid_built(ctx.points, ctx.params, *ctx.grid, *ctx.grid_cap);
  ctx.partitions = partition_queries(*ctx.grid, ctx.queries, ctx.order, ctx.params);
  ctx.partitioned = true;
  ctx.report.time.opt += ctx.partitions.seconds;
  ctx.report.num_partitions = static_cast<std::uint32_t>(ctx.partitions.partitions.size());
}

void BundleStage::run(SearchContext& ctx) {
  RTNN_CHECK(ctx.partitioned, "BundleStage requires PartitionStage output");
  Timer timer;
  if (use_cost_model_) {
    RTNN_CHECK(ctx.cost_model != nullptr, "BundleStage needs a cost model");
    // Paper: absent offline profiling, fall back to Listing 3.
    ctx.plan = plan_bundles(ctx.partitions, ctx.points.size(), ctx.params, *ctx.cost_model);
  } else {
    ctx.plan = unbundled_plan(ctx.partitions, ctx.params);
  }
  ctx.planned = true;
  ctx.report.num_bundles = static_cast<std::uint32_t>(ctx.plan.bundles.size());
  ctx.report.predicted_bundle_cost = ctx.plan.predicted_seconds;
  ctx.report.time.opt += timer.elapsed();
}

void LaunchStage::launch_chunk(SearchContext& ctx, const ox::Accel& accel,
                               float built_width, std::span<const std::uint32_t> ids,
                               bool skip_sphere_test, FlatKnnHeaps* heaps) {
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

void LaunchStage::launch_unit(SearchContext& ctx, const ox::Accel& accel,
                              float built_width, const Unit& unit, FlatKnnHeaps* heaps) {
  // Stream the unit's ids through fixed-size chunks. Partition id lists
  // are consumed as views; only the scratch chunk is ever materialized.
  std::size_t total = 0;
  for (const auto& span : unit.id_spans) total += span.size();

  if (unit.id_spans.size() == 1 && total <= kChunkSize) {
    launch_chunk(ctx, accel, built_width, unit.id_spans.front(), unit.skip_sphere_test, heaps);
    return;
  }

  std::vector<std::uint32_t> chunk;
  chunk.reserve(std::min(total, kChunkSize));
  for (const auto& span : unit.id_spans) {
    std::size_t offset = 0;
    while (offset < span.size()) {
      const std::size_t take = std::min(kChunkSize - chunk.size(), span.size() - offset);
      chunk.insert(chunk.end(), span.begin() + offset, span.begin() + offset + take);
      offset += take;
      if (chunk.size() == kChunkSize) {
        launch_chunk(ctx, accel, built_width, chunk, unit.skip_sphere_test, heaps);
        chunk.clear();
      }
    }
  }
  if (!chunk.empty()) {
    launch_chunk(ctx, accel, built_width, chunk, unit.skip_sphere_test, heaps);
  }
}

void LaunchStage::run(SearchContext& ctx) {
  // Result storage: one K-slot row per query, written by the range
  // pipeline directly and by the KNN chunks' drains.
  ctx.result = NeighborResult(ctx.queries.size(), ctx.params.k, ctx.params.store_indices);

  std::vector<Unit> units;
  if (ctx.planned) {
    units.reserve(ctx.plan.bundles.size());
    for (const Bundle& bundle : ctx.plan.bundles) {
      Unit unit;
      unit.aabb_width = bundle.aabb_width;
      unit.skip_sphere_test = bundle.skip_sphere_test;
      unit.id_spans.reserve(bundle.partition_indices.size());
      for (const std::uint32_t pi : bundle.partition_indices) {
        const auto& ids = ctx.partitions.partitions[pi].query_ids;
        if (!ids.empty()) unit.id_spans.emplace_back(ids);
      }
      // Skip empty bundles (caller-supplied plans may contain them)
      // before paying their O(N) BVH build.
      if (!unit.id_spans.empty()) units.push_back(std::move(unit));
    }
  } else if (!ctx.order.empty()) {
    // Unpartitioned: one unit over the (possibly scheduled) order, at the
    // naive base width.
    Unit unit;
    unit.aabb_width = ctx.scale_launch_widths ? 2.0f * ctx.params.radius : ctx.base_width;
    unit.skip_sphere_test = false;
    unit.id_spans.emplace_back(ctx.order);
    units.push_back(std::move(unit));
  }

  // The KNN chunk pool: a row per launch index of a chunk.
  std::optional<FlatKnnHeaps> heaps;
  if (ctx.params.mode == SearchMode::kKnn) {
    heaps.emplace(std::min(ctx.queries.size(), kChunkSize), ctx.params.k);
  }

  for (const Unit& unit : units) {
    // Approximation: shrink partition widths by aabb_scale too.
    const float width =
        ctx.scale_launch_widths ? unit.aabb_width * ctx.params.aabb_scale : unit.aabb_width;
    // Share the global base-width BVH across every launch unit that needs
    // exactly it (the unpartitioned path, and the sparse-fallback bundle).
    const bool is_base = std::abs(width - ctx.base_width) <= 1e-6f * ctx.params.radius;
    ox::Accel local;
    const ox::Accel* accel;
    if (is_base) {
      accel = &ctx.acquire_global_accel();
    } else {
      local = ctx.build_accel_width(width);
      accel = &local;
    }
    // The KNN cull bound needs the width the traversed boxes were built
    // with: the shared accel's, not this unit's (they may differ by the
    // is_base tolerance).
    const float built_width = accel->is_tiled() ? accel->tiled_bvh().aabb_width()
                              : is_base         ? ctx.base_width
                                                : width;
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

DynamicSearchSession::DynamicSearchSession(const SearchParams& params,
                                           const CostModel& model)
    : params_(params) {
  search_.set_cost_model(model);
  search_.set_index_persistence(true);
}

NeighborResult DynamicSearchSession::step(std::span<const Vec3> points,
                                          std::span<const Vec3> queries,
                                          NeighborSearch::Report* report) {
  RTNN_CHECK(!points.empty(), "a frame needs points");
  if (search_.point_count() == points.size()) {
    search_.update_points(points);  // moved positions: refit-eligible
  } else {
    search_.set_points(points);     // first frame or a resize: fresh index
  }
  ++frame_;
  return search_.search(queries, params_, report);
}

std::vector<std::unique_ptr<SearchStage>> make_pipeline(const OptimizationFlags& opts) {
  std::vector<std::unique_ptr<SearchStage>> stages;
  if (opts.scheduling) stages.push_back(std::make_unique<ScheduleStage>());
  if (opts.partitioning) {
    stages.push_back(std::make_unique<PartitionStage>());
    stages.push_back(std::make_unique<BundleStage>(opts.bundling));
  }
  stages.push_back(std::make_unique<LaunchStage>());
  return stages;
}

}  // namespace rtnn
