// Two-level acceleration structure (TLAS over per-tile BLASes).
//
// The monolithic index rebuilds or refits wholesale: one moving vehicle in
// a city-scale cloud pays an O(N) index update every frame. The TLAS/BLAS
// idiom of the real RT stack — instances under a top-level BVH — fixes
// that by making index maintenance *local*:
//
//   * the cloud is split into spatially compact tiles (the caller supplies
//     the membership — Morton-contiguous runs from the tile planner);
//   * each tile owns a bottom-level index: a compressed 8-wide `WideBvh`,
//     exactly the monolithic build product, just tile-local (the binary
//     LBVH it is collapsed from is dropped after the build);
//   * a small top-level binary BVH over the tight tile AABBs culls whole
//     tiles before a ray ever touches a bottom-level node.
//
// Traversal (rt::trace over a TiledBvh, traversal.hpp) walks the top tree
// and runs the ordinary compressed wide BLAS walk inside each intersected
// tile, remapping tile-local primitive ids back to the caller's global
// ids. Candidate sets match the monolithic path: a tile's bounds contain
// every member AABB, so top-level culling can only skip tiles the ray
// provably misses — the same conservative argument as any interior BVH
// node.
//
// Update (update()) is where the two-level shape pays off: each tile
// bitwise-compares its members' positions, and only *touched* tiles do any
// work — refit or rebuild, decided per tile by the caller's policy
// callback (the rtnn cost model, kept out of this layer). Untouched tiles
// are shared with previous snapshots; touched tiles are replaced, never
// mutated, so handles copied before the update keep answering the old
// frame (the same copy-on-write contract as ox::Accel).
//
// Tiles may be built lazily (build-on-first-route): an unbuilt tile holds
// only its members and bounds until the first ray — or an explicit
// ensure_* call — reaches it. This is the out-of-core stepping stone: an
// index whose resident bytes track the *routed* working set, not the
// cloud size. Lazy build is thread-safe and idempotent (double-checked
// atomic publish), so concurrent readers of a shared snapshot may race to
// build the same tile and agree on the winner.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/vec3.hpp"
#include "rtcore/bvh.hpp"
#include "rtcore/wide_bvh.hpp"

namespace rtnn::rt {

/// The two ways a touched tile absorbs a frame of motion (the per-tile
/// analog of the monolithic refit-vs-rebuild decision).
enum class TileUpdate : std::uint8_t { kRefit, kRebuild };

/// Per-tile refit-vs-rebuild policy: given the observed SAH inflation of
/// the tile's current index, decide how it absorbs this frame's motion.
/// Supplied by the caller (rtnn wraps its cost model's
/// choose_index_update) so rtcore stays free of cost-model knowledge.
using TileUpdatePolicy = std::function<TileUpdate(double sah_inflation)>;

struct TiledBuildOptions {
  /// Defer every tile's BLAS build to its first routed ray (or an
  /// explicit ensure call). false = build all tiles at build() time.
  bool lazy_build = false;
};

/// What one update() did, for the caller's per-frame accounting. The
/// touched count is the locality headline: touched / tile_count is the
/// fraction of the index a frame of motion actually paid for.
struct TiledUpdateStats {
  std::uint32_t tiles_touched = 0;   // tiles whose member positions changed
  std::uint32_t tile_refits = 0;     // touched + built, policy chose refit
  std::uint32_t tile_rebuilds = 0;   // touched + built, policy chose rebuild
  double build_seconds = 0.0;        // wall time of the per-tile rebuilds
};

/// Aggregate footprint of the two-level index: the byte gauges sum the
/// *built* tiles only (a lazy index's resident footprint is the routed
/// working set).
struct TiledBvhStats {
  std::uint32_t tile_count = 0;
  std::uint32_t built_tiles = 0;
  std::uint64_t node_bytes = 0;         // sum of built tiles' compressed node arrays
  std::uint64_t total_index_bytes = 0;  // + their leaf/prim arrays and the top tree
};

/// The two-level build product. Copyable: copies share every tile (and
/// the immutable top tree) until an update() replaces the touched ones —
/// per-tile copy-on-write, so snapshot/publish hand-offs stay cheap no
/// matter how large the cloud is.
class TiledBvh {
 public:
  /// One spatial tile: its member point ids (global, fixed at build; the
  /// Morton-contiguous run the planner assigned), their current
  /// positions, tight bounds over the member AABBs, and the lazily built
  /// bottom-level index.
  class Tile {
   public:
    Tile() = default;

    std::span<const std::uint32_t> prim_ids() const { return prim_ids_; }
    std::span<const Vec3> positions() const { return positions_; }
    const Aabb& bounds() const { return bounds_; }

    /// The built index — the wide tree every monolithic accel holds, over
    /// the tile's member AABBs in member order (local prim id i = slot i
    /// of the tile's id list) — or nullptr while the tile is still lazy.
    const WideBvh* index() const { return index_.load(std::memory_order_acquire); }

    /// The index, built on first use (the build-on-first-route step).
    /// Safe to call concurrently from traversal threads sharing a
    /// snapshot: one caller builds under the tile mutex, the rest reuse
    /// the published pointer.
    const WideBvh& ensure_index(float aabb_width) const;

   private:
    friend class TiledBvh;

    /// Publishes an already-built index (eager builds and updates).
    void publish(std::shared_ptr<const WideBvh> index) {
      storage_ = std::move(index);
      index_.store(storage_.get(), std::memory_order_release);
    }

    std::vector<std::uint32_t> prim_ids_;
    std::vector<Vec3> positions_;
    Aabb bounds_;
    mutable std::mutex build_mutex_;                       // serializes lazy builds
    mutable std::shared_ptr<const WideBvh> storage_;     // owns the index
    mutable std::atomic<const WideBvh*> index_{nullptr}; // lock-free read side
  };

  TiledBvh() = default;

  /// Builds the two-level index: `tile_ids[t]` lists the global ids of
  /// tile t's points (a partition of [0, points.size())), every point
  /// boxed as Aabb::cube(position, aabb_width) exactly like the
  /// monolithic build. Empty tiles are dropped. With lazy_build the
  /// bottom-level indexes wait for their first ray; bounds are always
  /// computed eagerly (routing and top-level culling need them).
  void build(std::span<const Vec3> points, float aabb_width,
             std::span<const std::vector<std::uint32_t>> tile_ids,
             const TiledBuildOptions& options = {});

  /// Absorbs one frame of motion: `points` is the full global array (same
  /// count and ids as build()). Each tile bitwise-compares its members'
  /// positions; untouched tiles are kept (still shared with any earlier
  /// copy), touched tiles are *replaced* with a fresh tile whose index is
  /// refit or rebuilt per `policy` — or left unbuilt when it was unbuilt,
  /// the lazy index absorbing motion for free. The top-level tree is
  /// rebuilt over the re-tightened bounds (tile_count primitives — noise
  /// next to one BLAS).
  TiledUpdateStats update(std::span<const Vec3> points, const TileUpdatePolicy& policy);

  bool empty() const { return tiles_.empty(); }
  std::uint32_t tile_count() const { return static_cast<std::uint32_t>(tiles_.size()); }
  std::uint32_t built_tile_count() const;
  std::size_t prim_count() const { return point_count_; }
  float aabb_width() const { return width_; }

  /// The top-level binary BVH: primitive t is tile t (top().prim_order()
  /// maps leaf slots back to tile indices).
  const Bvh& top() const { return top_; }
  const Aabb& scene_bounds() const { return top_.scene_bounds(); }
  const Tile& tile(std::uint32_t t) const { return *tiles_[t]; }

  /// Builds every still-lazy tile (parallel over tiles). The eager entry
  /// point for callers that want build cost out of the first launch.
  void ensure_all_built() const;

  /// Footprint of the built tiles' wide BLASes (WideBvh::stats) plus the
  /// top tree.
  TiledBvhStats stats() const;

  /// Worst observed per-tile SAH inflation (1.0 when every built tile is
  /// fresh) — the quality signal the per-tile policy reacts to, surfaced
  /// for reports.
  double max_sah_inflation() const;

  /// Structural invariants (tests): tiles partition the ids, bounds
  /// contain the member AABBs, built tiles' indexes validate, and the top
  /// tree references each tile exactly once. Throws rtnn::Error.
  void validate() const;

 private:
  std::shared_ptr<Tile> make_tile(std::span<const Vec3> points,
                                  std::vector<std::uint32_t> ids) const;
  void rebuild_top();

  std::vector<std::shared_ptr<Tile>> tiles_;
  Bvh top_;
  float width_ = 0.0f;
  std::size_t point_count_ = 0;
};

}  // namespace rtnn::rt
