#include "rtnn/neighbor_search.hpp"

#include <numeric>

#include "core/error.hpp"
#include "core/flat_knn.hpp"
#include "rtnn/partitioner.hpp"
#include "rtnn/stages.hpp"

namespace rtnn {

NeighborSearch::Report& NeighborSearch::Report::operator+=(const Report& o) {
  time += o.time;
  stats += o.stats;
  first_hit_stats += o.first_hit_stats;
  num_partitions += o.num_partitions;
  num_bundles += o.num_bundles;
  predicted_bundle_cost += o.predicted_bundle_cost;
  accel_refits += o.accel_refits;
  accel_rebuilds += o.accel_rebuilds;
  sah_inflation = std::max(sah_inflation, o.sah_inflation);
  queries_deduped += o.queries_deduped;
  batch_bins += o.batch_bins;
  tile_count = std::max(tile_count, o.tile_count);
  tiles_touched += o.tiles_touched;
  tile_refits += o.tile_refits;
  tile_rebuilds += o.tile_rebuilds;
  tile_lazy_builds += o.tile_lazy_builds;
  index_node_bytes = std::max(index_node_bytes, o.index_node_bytes);
  index_total_bytes = std::max(index_total_bytes, o.index_total_bytes);
  return *this;
}

void NeighborSearch::set_points(std::span<const Vec3> points) {
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  points_.assign(points.begin(), points.end());
  grid_valid_ = false;
  index_cache_ = IndexCache{};  // a new upload invalidates the lifecycle
}

void NeighborSearch::update_points(std::span<const Vec3> points) {
  RTNN_CHECK(!points_.empty(), "set_points() before update_points()");
  RTNN_CHECK(points.size() == points_.size(),
             "update_points() requires the same point count; a resized cloud "
             "is a new set_points() upload");
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  std::copy(points.begin(), points.end(), points_.begin());
  grid_valid_ = false;          // megacell grid tracks positions
  index_cache_.moved = true;    // resolved refit-vs-rebuild at next search
  index_persistence_ = true;
}

void NeighborSearch::set_index_persistence(bool on) {
  index_persistence_ = on;
  if (!on) index_cache_ = IndexCache{};
}

void NeighborSearch::set_tiling(const TileOptions& options) {
  tiling_ = options;
  // The decomposition is part of the build product: a cached monolithic
  // accel cannot serve a tiled request (or vice versa), so restart the
  // lifecycle like a new upload would.
  index_cache_ = IndexCache{};
}

PartitionSet NeighborSearch::partition(std::span<const Vec3> queries,
                                       std::span<const std::uint32_t> order,
                                       const SearchParams& params) const {
  ensure_grid_built(points_, params, grid_, grid_valid_);
  return partition_queries(grid_, queries, order, params);
}

void NeighborSearch::init_context(SearchContext& ctx, std::span<const Vec3> queries,
                                  const SearchParams& params) {
  RTNN_CHECK(!points_.empty(), "set_points() before search()");
  RTNN_CHECK(params.radius > 0.0f, "radius must be positive");
  RTNN_CHECK(params.k > 0, "K must be positive");
  RTNN_CHECK(params.aabb_scale > 0.0f && params.aabb_scale <= 1.0f,
             "aabb_scale must be in (0, 1]");
  RTNN_CHECK(!params.elide_sphere_test || params.mode == SearchMode::kRange,
             "elide_sphere_test applies to range search only");
  RTNN_CHECK(!(tiling_.enabled() && params.simt_launches),
             "tiled indexes serve independent launches only; warp-lockstep "
             "characterization walks the monolithic binary BVH");

  ctx.points = points_;
  ctx.params = params;
  ctx.tiling = tiling_;
  ctx.cost_model = &cost_model_;
  ctx.grid = &grid_;
  ctx.grid_valid = &grid_valid_;
  ctx.index_cache = index_persistence_ ? &index_cache_ : nullptr;
  ctx.base_width = 2.0f * params.radius * params.aabb_scale;

  // Data phase: queries land in device memory.
  Timer timer;
  ctx.queries.assign(queries.begin(), queries.end());
  ctx.order.resize(ctx.queries.size());
  std::iota(ctx.order.begin(), ctx.order.end(), 0u);
  ctx.report.time.data += timer.elapsed();
}

NeighborResult NeighborSearch::finish_context(SearchContext& ctx, Report* report_out) {
  NeighborResult result = (ctx.params.mode == SearchMode::kRange)
                              ? std::move(ctx.range_result)
                              : ctx.knn_heaps->extract(ctx.params.store_indices);
  if (report_out) *report_out = ctx.report;
  return result;
}

NeighborResult NeighborSearch::run_stages(std::span<const Vec3> queries,
                                          const SearchParams& params,
                                          std::span<const std::unique_ptr<SearchStage>> stages,
                                          Report* report_out) {
  SearchContext ctx;
  init_context(ctx, queries, params);
  for (const auto& stage : stages) stage->run(ctx);
  RTNN_CHECK(ctx.range_result.num_queries() == ctx.queries.size() || ctx.knn_heaps,
             "pipeline must end in a LaunchStage");
  return finish_context(ctx, report_out);
}

NeighborResult NeighborSearch::search(std::span<const Vec3> queries,
                                      const SearchParams& params, Report* report_out) {
  SearchParams effective = params;
  if (tiling_.enabled() && points_.size() > tiling_.tile_threshold) {
    // Tiling replaces megacell decomposition: both split the same launch
    // spatially, and partition-local accel builds would discard the tiled
    // index's per-tile reuse. Scheduling (query ordering) still composes.
    effective.opts.partitioning = false;
    effective.opts.bundling = false;
  }
  const auto stages = make_pipeline(effective.opts);
  return run_stages(queries, effective, stages, report_out);
}

NeighborResult NeighborSearch::search_with_plan(std::span<const Vec3> queries,
                                                const SearchParams& params,
                                                const PartitionSet& partitions,
                                                const BundlePlan& plan, Report* report_out) {
  SearchContext ctx;
  init_context(ctx, queries, params);
  // Inject the caller's partitioning + plan; its widths are final.
  ctx.partitions = partitions;
  ctx.partitioned = true;
  ctx.plan = plan;
  ctx.planned = true;
  ctx.scale_launch_widths = false;
  ctx.report.num_partitions = static_cast<std::uint32_t>(partitions.partitions.size());
  ctx.report.num_bundles = static_cast<std::uint32_t>(plan.bundles.size());
  LaunchStage().run(ctx);
  return finish_context(ctx, report_out);
}

NeighborResult search(std::span<const Vec3> points, std::span<const Vec3> queries,
                      const SearchParams& params, NeighborSearch::Report* report) {
  NeighborSearch ns;
  ns.set_points(points);
  return ns.search(queries, params, report);
}

}  // namespace rtnn
