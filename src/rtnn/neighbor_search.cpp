#include "rtnn/neighbor_search.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/failpoint.hpp"
#include "rtnn/partitioner.hpp"

namespace rtnn {

NeighborSearch::Report& NeighborSearch::Report::operator+=(const Report& o) {
  time += o.time;
  stats += o.stats;
  first_hit_stats += o.first_hit_stats;
  num_partitions += o.num_partitions;
  num_bundles += o.num_bundles;
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
  grid_cap_ = 0;
  index_cache_ = IndexCache{};  // a new upload invalidates the lifecycle
}

void NeighborSearch::update_points(std::span<const Vec3> points) {
  RTNN_CHECK(!points_.empty(), "set_points() before update_points()");
  RTNN_CHECK(points.size() == points_.size(),
             "update_points() requires the same point count; a resized cloud "
             "is a new set_points() upload");
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  std::copy(points.begin(), points.end(), points_.begin());
  grid_cap_ = 0;                // megacell grid tracks positions
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
  // Cap the grid at ~128 cells per point: far finer cells cannot sharpen
  // the megacell estimate and the SAT would dominate small datasets.
  const std::uint64_t useful =
      std::max<std::uint64_t>(4096, 128 * static_cast<std::uint64_t>(points_.size()));
  const std::uint64_t cap = std::min(params.max_grid_cells, useful);
  // The cached grid is reused only while the cap it was built under still
  // applies. A built grid has cap >= 8 (GridIndex::build rejects less), so
  // the stale mark 0 never matches a built cap.
  if (grid_cap_ == 0 || grid_cap_ != cap) {
    RTNN_FAILPOINT("rtnn.grid.build");
    grid_.build(points_, cap);
    grid_cap_ = cap;
  }
  return partition_queries(grid_, queries, order, params);
}

NeighborResult search(std::span<const Vec3> points, std::span<const Vec3> queries,
                      const SearchParams& params, NeighborSearch::Report* report) {
  NeighborSearch ns;
  ns.set_points(points);
  return ns.search(queries, params, report);
}

}  // namespace rtnn
