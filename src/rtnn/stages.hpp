// The staged query pipeline behind NeighborSearch::search().
//
// The paper's end-to-end flow (schedule → partition → bundle → launch,
// Figure 12's phases) is expressed as composable stage objects sharing one
// SearchContext. NeighborSearch::search() assembles the stage list from
// the OptimizationFlags; benches and the Figure-13 ablations assemble
// their own lists (e.g. swapping BundleStage for an Oracle plan) and run
// them through NeighborSearch::run_stages() — the ablation axes are real
// objects, not bool flags threaded through a monolith.
//
//   ScheduleStage   first-hit cast + Morton sort → ctx.order        [FS/Opt]
//   PartitionStage  megacell growth on the cached grid → partitions [Opt]
//   BundleStage     cost-model scan (or Listing-3 default) → plan   [Opt]
//   LaunchStage     per-bundle BVH builds + chunked launches        [BVH/Search]
//
// LaunchStage streams each launch unit's query ids through fixed-size
// chunks instead of materializing one concatenated id vector per bundle,
// so peak memory is O(chunk) rather than O(Q) per unit. KNN heaps are
// chunk-local too: one pool of min(Q, chunk) rows, indexed by launch
// index, drained into the call's result after each chunk's launch (and
// timed in time.search).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/flat_knn.hpp"
#include "rtnn/neighbor_search.hpp"

namespace rtnn {

/// Lazily (re)builds the megacell grid for `points` under the
/// `max_grid_cells` policy shared by PartitionStage and
/// NeighborSearch::partition(). `built_cap` is the owner's cache key: the
/// effective cell cap `grid` was built under (0 = stale). A cached grid
/// is reused only while the cap it was built under still applies.
void ensure_grid_built(std::span<const Vec3> points, const SearchParams& params,
                       GridIndex& grid, std::uint64_t& built_cap);

/// Everything a search() call accumulates while flowing through the
/// stages. Inputs are set up by NeighborSearch; each stage reads what the
/// previous ones produced and appends its own timing to `report`.
struct SearchContext {
  // --- Inputs ---
  std::span<const Vec3> points;
  std::vector<Vec3> queries;  // the "device" copy
  SearchParams params{};
  const CostModel* cost_model = nullptr;
  GridIndex* grid = nullptr;   // owner's cached grid (PartitionStage builds it)
  std::uint64_t* grid_cap = nullptr;  // the cap it was built under (0 = stale)
  /// Owner's persistent base-width accel (dynamic sequences). When set,
  /// acquire_global_accel() serves it — refitting or rebuilding stale
  /// entries per choose_index_update — instead of building a call-local
  /// accel. Null on the static path.
  IndexCache* index_cache = nullptr;
  /// Two-level base index configuration (NeighborSearch::set_tiling).
  /// When active for this cloud, the base-width accel is a TLAS over
  /// spatial tiles instead of one monolithic BVH.
  TileOptions tiling{};

  /// Whether this call's base accel is (or will be) tiled: tiling is on
  /// and the cloud is over the threshold.
  bool tiled_active() const {
    return tiling.enabled() && points.size() > tiling.tile_threshold;
  }

  // --- Evolving state ---
  float base_width = 0.0f;           // 2r·aabb_scale, the naive AABB width
  ox::Accel global_accel;            // base-width BVH, built at most once
  std::vector<std::uint32_t> order;  // query-to-ray mapping (starts as iota)
  PartitionSet partitions;
  bool partitioned = false;
  BundlePlan plan;
  bool planned = false;
  /// search_with_plan() injects widths that are final; search() widths are
  /// still scaled by params.aabb_scale at launch.
  bool scale_launch_widths = true;

  // --- Outputs ---
  NeighborResult result;  // one K-slot row per query, written by LaunchStage
  NeighborSearch::Report report;

  /// Builds a BVH over `points` with cubic AABBs of `aabb_width`,
  /// charging the build to report.time.bvh.
  ox::Accel build_accel_width(float aabb_width);

  /// Builds the two-level base accel: Morton-contiguous tiles from the
  /// tile planner (plan_tiles), each owning its own bottom-level
  /// index, under a top-level BVH. Charged to report.time.bvh like any
  /// other build; with tiling.lazy_build only the tile bounds and top
  /// tree are paid here.
  ox::Accel build_tiled_accel_width(float aabb_width);

  /// The base-width BVH shared by the scheduling pre-pass and the
  /// unpartitioned launch path. With an index_cache attached this is the
  /// index-lifecycle entry point: a fresh cloud builds (time.bvh), small
  /// motion refits in place (time.refit), degraded or resized indexes
  /// rebuild — per the cost model's choose_index_update policy.
  const ox::Accel& acquire_global_accel();

 private:
  /// Brings *index_cache up to date with (points, base_width).
  void sync_index_cache();
};

/// One step of the search pipeline. Stages are stateless between runs and
/// reusable across calls; all per-call state lives in the SearchContext.
class SearchStage {
 public:
  virtual ~SearchStage() = default;
  virtual const char* name() const = 0;
  virtual void run(SearchContext& ctx) = 0;
};

/// Section 4: spatially-ordered query scheduling. Rewrites ctx.order.
class ScheduleStage final : public SearchStage {
 public:
  const char* name() const override { return "schedule"; }
  void run(SearchContext& ctx) override;
};

/// Section 5.1: megacell partitioning. Fills ctx.partitions.
class PartitionStage final : public SearchStage {
 public:
  const char* name() const override { return "partition"; }
  void run(SearchContext& ctx) override;
};

/// Section 5.2: partition bundling. Fills ctx.plan from ctx.partitions —
/// the cost-model linear scan, or the Listing-3 default (one bundle per
/// partition) when disabled or the model is uncalibrated.
class BundleStage final : public SearchStage {
 public:
  explicit BundleStage(bool use_cost_model = true) : use_cost_model_(use_cost_model) {}
  const char* name() const override { return "bundle"; }
  void run(SearchContext& ctx) override;

 private:
  bool use_cost_model_;
};

/// Executes the plan: allocates result storage, builds each launch unit's
/// BVH (reusing the global one when widths coincide), and streams the
/// unit's query ids through chunked ox::launch calls.
class LaunchStage final : public SearchStage {
 public:
  /// Queries per launch chunk. Bounds the ray buffer, the id scratch and
  /// the KNN heap pool; launches wider than this are split (results are
  /// row-addressed by query id, so splitting is invisible to output).
  static constexpr std::size_t kChunkSize = std::size_t{1} << 15;

  const char* name() const override { return "launch"; }
  void run(SearchContext& ctx) override;

 private:
  struct Unit {
    std::vector<std::span<const std::uint32_t>> id_spans;  // views, not copies
    float aabb_width = 0.0f;
    bool skip_sphere_test = false;
  };

  /// `built_width` is the AABB width `accel` was built with (the KNN
  /// pipeline's cull bound is derived from it). `heaps` is the KNN chunk
  /// pool (null for range search): row i holds launch index i's
  /// neighbors until the chunk drains it into ctx.result.
  void launch_unit(SearchContext& ctx, const ox::Accel& accel, float built_width,
                   const Unit& unit, FlatKnnHeaps* heaps);
  void launch_chunk(SearchContext& ctx, const ox::Accel& accel, float built_width,
                    std::span<const std::uint32_t> ids, bool skip_sphere_test,
                    FlatKnnHeaps* heaps);
};

/// The stage list search() runs for the given optimization flags.
std::vector<std::unique_ptr<SearchStage>> make_pipeline(const OptimizationFlags& opts);

/// Owns a point cloud across the frames of a dynamic sequence — lidar
/// sweeps, SPH timesteps, N-body steps — and answers each frame through
/// the index lifecycle instead of a from-scratch build:
///
///   frame 0    set_points + build            (time.bvh)
///   frame t    update_points + refit         (time.refit)  — usual case
///              ... or rebuild when the cost model's policy says the
///              refitted index has degraded    (time.bvh)
///
/// step() uploads the frame's positions (a changed count falls back to a
/// fresh upload + build) and runs the search; per-frame Reports stream the
/// phase times, the index action taken (accel_refits / accel_rebuilds)
/// and the observed sah_inflation. Search params are fixed at
/// construction: a stable radius is what makes the base-width accel
/// reusable frame over frame.
class DynamicSearchSession {
 public:
  explicit DynamicSearchSession(const SearchParams& params, const CostModel& model = {});

  /// Advances one frame: uploads `points` and answers `queries`.
  NeighborResult step(std::span<const Vec3> points, std::span<const Vec3> queries,
                      NeighborSearch::Report* report = nullptr);

  /// Self-neighborhood frame: the moved points query their own
  /// neighborhoods (the SPH / N-body shape).
  NeighborResult step(std::span<const Vec3> points,
                      NeighborSearch::Report* report = nullptr) {
    return step(points, points, report);
  }

  std::uint64_t frame() const { return frame_; }
  std::size_t point_count() const { return search_.point_count(); }
  const SearchParams& params() const { return params_; }
  /// The underlying engine (cost model swaps, ad-hoc queries, stats).
  NeighborSearch& core() { return search_; }

 private:
  NeighborSearch search_;
  SearchParams params_;
  std::uint64_t frame_ = 0;
};

}  // namespace rtnn
