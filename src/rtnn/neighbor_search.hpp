// RTNN public API: neighbor search on the ray-tracing substrate.
//
// End-to-end flow (the paper's full system):
//
//   set_points()    — upload points to "device" memory          [Data]
//   search(), one straight line over params.opts:
//     schedule:  Morton sort of the queries' own positions      [Opt]
//     partition: megacell growth on a uniform grid (built when
//                stale), bucket queries by width                [Opt]
//     bundle:    cost-model scan over partition bundlings       [Opt]
//     launch:    per-bundle BVH build (width = bundle AABB
//                width) + chunked range/KNN launches            [BVH/Search]
//
// What search() derives from the points lives until they change: the
// megacell grid, and the base-width accel (the unpartitioned launch's, and
// any bundle at 2r·aabb_scale). set_points() and set_tiling() drop it;
// after update_points() the next search refits or rebuilds the accel.
//
// The steps live in rtnn/stages.cpp. search_with_plan() runs the launch
// step on a caller's partitions and plan (the Figure-13 Oracle). With all
// optimizations disabled this degenerates to the naive mapping of
// section 3 (also exposed as the FastRNN baseline).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/neighbor_result.hpp"
#include "core/timing.hpp"
#include "core/vec3.hpp"
#include "optix/optix.hpp"
#include "rtcore/launch_stats.hpp"
#include "rtnn/cost_model.hpp"
#include "rtnn/grid_index.hpp"
#include "rtnn/types.hpp"

namespace rtnn {

struct SearchContext;  // search()'s per-call state (rtnn/stages.cpp)

/// One request's rows within a coalesced batch launch: queries
/// [first, first + count) of the merged query array belong to this
/// request. The batch optimizer (rtnn/batch_optimizer.hpp) builds one
/// slice per member request of a bin; split_batch_result() scatters the
/// batch result back to the slots.
struct BatchSlice {
  std::size_t first = 0;
  std::size_t count = 0;
};

class NeighborSearch {
 public:
  /// Everything the benches report about one search() call.
  struct Report {
    TimeBreakdown time;
    rt::LaunchStats stats;           // actual-search launches, accumulated
    /// Reads 0: scheduling casts no first-hit rays. Kept, like
    /// time.first_search, because perfbench/ still reads it.
    rt::LaunchStats first_hit_stats;
    std::uint32_t num_partitions = 0;
    std::uint32_t num_bundles = 0;
    // Index lifecycle of this call: what update_points() cost the kept
    // base accel (zero / 1.0 when it was fresh or reused as is).
    std::uint32_t accel_refits = 0;    // base accel refitted this call
    std::uint32_t accel_rebuilds = 0;  // base accel rebuilt by the policy
    double sah_inflation = 1.0;        // base accel quality after this call
    // Batch-optimizer activity (the serving path's coherence pass; zero
    // on plain searches). Optimizer wall time is charged to time.opt.
    std::uint64_t queries_deduped = 0; // rows answered by a coincident representative
    std::uint32_t batch_bins = 0;      // homogeneous launch bins emitted
    // Two-level (tiled) index lifecycle (all zero when tiling is off).
    // The touched/refit/rebuild counters are the locality headline: with
    // local motion, tiles_touched / tile_count stays far below 1 while
    // the monolithic path would refit everything.
    std::uint32_t tile_count = 0;       // tiles in the active tiled index (gauge)
    std::uint32_t tiles_touched = 0;    // tiles whose member points moved
    std::uint32_t tile_refits = 0;      // touched tiles the policy refit
    std::uint32_t tile_rebuilds = 0;    // touched tiles the policy rebuilt
    std::uint32_t tile_lazy_builds = 0; // tiles built on first route this call
    // Memory footprint of the traversal index actually launched against
    // (the selected wide-BVH layout's byte accounting; the largest accel
    // of the call when partitioning builds several).
    std::uint64_t index_node_bytes = 0;   // node array alone
    std::uint64_t index_total_bytes = 0;  // + shared leaf/prim arrays
    /// Aggregation across calls/batches (the serving layer's per-service
    /// totals): every time and counter sums exactly; sah_inflation keeps
    /// the worst (largest) quality degradation observed, and the index
    /// byte gauges keep the largest footprint seen.
    Report& operator+=(const Report& o);
  };

  NeighborSearch() = default;

  /// Uploads the search points (the Data phase) and drops what was
  /// derived from the old ones: the base accel and the megacell grid.
  /// Throws rtnn::Error on a NaN or infinite coordinate (update_points()
  /// too); non-finite *queries* are legal and answer empty rows.
  void set_points(std::span<const Vec3> points);

  /// Moves the uploaded points to new positions — one frame of a dynamic
  /// sequence. Requires set_points() first and an identical count (a
  /// resized cloud is a new upload, not a move). The next search() refits
  /// or rebuilds the kept base accel per choose_index_update().
  void update_points(std::span<const Vec3> points);

  /// Enables the two-level (tiled) base index (see TileOptions). Takes
  /// effect at the next search(), which rebuilds the base accel: the
  /// decomposition is part of the build.
  void set_tiling(const TileOptions& options);
  const TileOptions& tiling() const { return tiling_; }

  std::size_t point_count() const { return points_.size(); }

  /// Runs a neighbor search for `queries` under `params`: schedules,
  /// partitions and bundles as `params.opts` says, then launches.
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report = nullptr);

  /// Runs a search with an externally chosen bundle plan (used by the
  /// Oracle ablation of Figure 13, which exhaustively tries plans). Plan
  /// widths are scaled by params.aabb_scale, as search() scales its own.
  NeighborResult search_with_plan(std::span<const Vec3> queries, const SearchParams& params,
                                  const PartitionSet& partitions, const BundlePlan& plan,
                                  Report* report = nullptr);

  /// Exposes the partitioning step so callers (benches, Oracle) can
  /// inspect or re-plan it. `order` must be a permutation of query ids.
  PartitionSet partition(std::span<const Vec3> queries,
                         std::span<const std::uint32_t> order,
                         const SearchParams& params) const;

 private:
  /// Checks `params`, fills a SearchContext's inputs and charges the
  /// query upload to the Data phase.
  void init_context(SearchContext& ctx, std::span<const Vec3> queries,
                    const SearchParams& params) const;
  /// The launch step: builds or syncs each launch unit's accel and runs
  /// its chunked launches into ctx.result.
  void launch(SearchContext& ctx);
  /// Brings index_cache_ up to date with the points at AABB width
  /// `width`: reused as is, built fresh, or a refit or rebuild of moved
  /// points per choose_index_update.
  void sync_index_cache(float width, Report& report);
  /// Whether the base accel is a TLAS over tiles: tiling is on and the
  /// cloud is over the threshold.
  bool tiled() const {
    return tiling_.enabled() && points_.size() > tiling_.tile_threshold;
  }

  /// The base-width accel kept until the points change: set_points() and
  /// set_tiling() reset it, update_points() marks it `moved` (the next
  /// sync refits or rebuilds it), and a search at another width rebuilds
  /// it (sync_index_cache in stages.cpp).
  struct IndexCache {
    ox::Accel accel;
    float width = -1.0f;  // AABB width the accel was built at
    bool moved = false;   // positions changed since the accel last synced
  };

  std::vector<Vec3> points_;  // the "device" copy
  mutable GridIndex grid_;    // rebuilt per point set, cached across searches
  mutable std::uint64_t grid_cap_ = 0;  // the cell cap grid_ was built under (0 = stale)
  IndexCache index_cache_;
  TileOptions tiling_{};      // two-level base index (opt-in)
};

/// One-shot convenience wrapper.
NeighborResult search(std::span<const Vec3> points, std::span<const Vec3> queries,
                      const SearchParams& params, NeighborSearch::Report* report = nullptr);

/// Scatters a coalesced batch result back to per-request results: output i
/// holds rows [slices[i].first, slices[i].first + slices[i].count) of
/// `batch`. Slices must lie within the batch (they may overlap or leave
/// gaps — a slice is a view, not a partition). Works for any backend's
/// NeighborResult, with or without stored indices.
std::vector<NeighborResult> split_batch_result(const NeighborResult& batch,
                                               std::span<const BatchSlice> slices);

/// Permutation-aware scatter (the batch optimizer's fan-out): output i's
/// row q reads batch row `batch_rows[slices[i].first + q]` instead of the
/// identity mapping — `batch_rows` is the merged-row → result-row map a
/// reorder/dedup pass produced (an inverse permutation when every row kept
/// its own result; many-to-one when coincident rows share a
/// representative's). Per-request result slots are untouched by either
/// pass: slices keep addressing pre-optimization rows. `batch_rows` must
/// cover every row a slice touches, with every entry < batch.num_queries().
std::vector<NeighborResult> split_batch_result(const NeighborResult& batch,
                                               std::span<const BatchSlice> slices,
                                               std::span<const std::uint32_t> batch_rows);

}  // namespace rtnn
