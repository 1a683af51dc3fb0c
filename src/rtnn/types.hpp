// Public configuration types of the RTNN library.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rtnn {

/// The two neighbor-search variants the paper optimizes (section 2.1).
/// Both use the same bounded interface: a search radius and a maximum
/// neighbor count K.
enum class SearchMode : std::uint8_t {
  kRange,  // all neighbors within r, up to K of them
  kKnn,    // the K smallest (dist², id) pairs within r
};

/// Which of the paper's optimizations to apply (the Figure 13 ablation
/// axes). Defaults = the full RTNN configuration.
struct OptimizationFlags {
  /// Section 4: spatially-ordered query scheduling (Morton sort of the
  /// queries by their own positions; no first-hit cast).
  bool scheduling = true;
  /// Section 5.1: query partitioning via megacells, one BVH per partition.
  bool partitioning = true;
  /// Section 5.2: cost-model-driven bundling of partitions. Only
  /// meaningful when partitioning is on.
  bool bundling = true;

  static OptimizationFlags none() { return {false, false, false}; }
  static OptimizationFlags scheduling_only() { return {true, false, false}; }
  static OptimizationFlags no_bundling() { return {true, true, false}; }
  static OptimizationFlags all() { return {true, true, true}; }
};

/// Two-level (tiled) index configuration: when enabled, the base-width
/// acceleration structure becomes a TLAS over Morton-contiguous spatial
/// tiles, each owning its own bottom-level BVH — index updates become
/// per-tile decisions (a moving vehicle touches a handful of tiles
/// instead of refitting the monolith) and tiles can build lazily on
/// first route. Candidate sets are identical to the monolithic index by
/// construction. Tiling replaces megacell query partitioning when
/// active: both are spatial decompositions of the same launch, so
/// search() disables partitioning/bundling rather than stacking them.
struct TileOptions {
  /// Points per tile the planner aims for; clouds at or below this stay
  /// monolithic. 0 = tiling off (the default — monolithic semantics and
  /// timing profile are unchanged).
  std::size_t tile_threshold = 0;
  /// Upper bound on the tile count, whatever the cloud size.
  /// 0 = unbounded (the codebase-wide "0 = no cap" contract).
  std::uint32_t max_tiles = 0;
  /// Build each tile's bottom-level index on its first routed ray
  /// instead of at set_points() time (build-on-first-route; the deferred
  /// cost lands inside the first launch that reaches the tile).
  bool lazy_build = true;

  bool enabled() const { return tile_threshold > 0; }
};

/// The answer-shaping subset of SearchParams: two requests whose keys
/// compare equal are guaranteed the same results from one merged launch,
/// regardless of how their pipeline-shaping fields (OptimizationFlags,
/// max_grid_cells — exactness-preserving by contract)
/// differ. This is the one definition of "batchable": the batch
/// optimizer's bin splitter — the serving dispatcher's only grouping —
/// reads it through SearchParams::batch_key(); there is no second
/// hand-rolled field-by-field comparison to drift from it.
struct BatchKey {
  SearchMode mode = SearchMode::kRange;
  float radius = 1.0f;
  std::uint32_t k = 16;
  bool store_indices = true;
  float aabb_scale = 1.0f;
  bool elide_sphere_test = false;

  friend bool operator==(const BatchKey&, const BatchKey&) = default;
};

struct SearchParams {
  SearchMode mode = SearchMode::kRange;
  float radius = 1.0f;      // search radius r
  std::uint32_t k = 16;     // maximum neighbor count K
  OptimizationFlags opts{};

  /// Store neighbor indices (true) or only per-query counts (false; saves
  /// Q*K*4 bytes on the largest benchmark runs).
  bool store_indices = true;

  /// Megacell grid: maximum number of cells, the "smallest cell size
  /// allowed by the GPU memory capacity" knob of section 5.1.
  std::uint64_t max_grid_cells = std::uint64_t{1} << 21;

  // --- Approximate search (paper section 8, "Approximate Neighbor
  // Search") ---

  /// Scales every AABB width below what exactness requires (< 1.0 =
  /// approximate). "Using a smaller AABB would reduce the number of
  /// neighbors returned but also provide performance gains."
  float aabb_scale = 1.0f;

  /// Elides Step 2 entirely, treating any query inside a point's AABB as
  /// a neighbor. Range search only. Returned neighbors are then within
  /// sqrt(3)*r of the query (the paper's quantitative error bound).
  bool elide_sphere_test = false;

  /// The fields that shape the answer (see BatchKey): requests with equal
  /// keys may share one launch without changing any per-request result.
  BatchKey batch_key() const {
    return {mode, radius, k, store_indices, aabb_scale, elide_sphere_test};
  }
};

}  // namespace rtnn
