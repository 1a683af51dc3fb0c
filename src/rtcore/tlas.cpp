#include "rtcore/tlas.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/timing.hpp"

namespace rtnn::rt {

namespace {

/// Bounds over the member cubes: the point bounds expanded by half the
/// AABB width on every axis. Exactly contains every Aabb::cube(p, width).
Aabb member_bounds(std::span<const Vec3> positions, float width) {
  Aabb box;
  for (const Vec3& p : positions) box.grow(p);
  const float half = 0.5f * width;
  const Vec3 pad{half, half, half};
  return Aabb{box.lo - pad, box.hi + pad};
}

/// A tile's wide index (one primitive per leaf, the RTNN configuration);
/// the binary tree it collapses is dropped here.
std::shared_ptr<const WideBvh> build_index(std::span<const Vec3> positions, float width) {
  std::vector<Aabb> boxes(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    boxes[i] = Aabb::cube(positions[i], width);
  }
  Bvh bvh;
  bvh.build(boxes);
  auto index = std::make_shared<WideBvh>();
  index->build(bvh);
  return index;
}

}  // namespace

const WideBvh& TiledBvh::Tile::ensure_index(float aabb_width) const {
  if (const WideBvh* built = index_.load(std::memory_order_acquire)) return *built;
  std::lock_guard<std::mutex> lock(build_mutex_);
  if (const WideBvh* built = index_.load(std::memory_order_relaxed)) return *built;
  storage_ = build_index(positions_, aabb_width);
  index_.store(storage_.get(), std::memory_order_release);
  return *storage_;
}

std::shared_ptr<TiledBvh::Tile> TiledBvh::make_tile(
    std::span<const Vec3> points, std::vector<std::uint32_t> ids) const {
  auto tile = std::make_shared<Tile>();
  tile->prim_ids_ = std::move(ids);
  tile->positions_.resize(tile->prim_ids_.size());
  for (std::size_t i = 0; i < tile->prim_ids_.size(); ++i) {
    tile->positions_[i] = points[tile->prim_ids_[i]];
  }
  tile->bounds_ = member_bounds(tile->positions_, width_);
  return tile;
}

void TiledBvh::rebuild_top() {
  std::vector<Aabb> tile_boxes(tiles_.size());
  for (std::size_t t = 0; t < tiles_.size(); ++t) tile_boxes[t] = tiles_[t]->bounds();
  // One primitive per tile: leaves of the top tree name tiles directly
  // through top_.prim_order().
  top_.build(tile_boxes, BvhBuildOptions{.leaf_size = 1});
}

void TiledBvh::build(std::span<const Vec3> points, float aabb_width,
                     std::span<const std::vector<std::uint32_t>> tile_ids,
                     const TiledBuildOptions& options) {
  RTNN_CHECK(!points.empty(), "cannot build a tiled index over an empty cloud");
  RTNN_CHECK(aabb_width > 0.0f, "AABB width must be positive");
  RTNN_CHECK(!tile_ids.empty(), "a tiled build needs at least one tile");
  width_ = aabb_width;
  point_count_ = points.size();

  tiles_.clear();
  tiles_.reserve(tile_ids.size());
  for (const std::vector<std::uint32_t>& ids : tile_ids) {
    if (ids.empty()) continue;  // planner may emit fewer tiles than asked
    tiles_.push_back(make_tile(points, ids));
  }
  RTNN_CHECK(!tiles_.empty(), "a tiled build needs at least one non-empty tile");

  if (!options.lazy_build) ensure_all_built();
  rebuild_top();
}

void TiledBvh::ensure_all_built() const {
  parallel_for(
      0, static_cast<std::int64_t>(tiles_.size()),
      [&](std::int64_t t) { tiles_[t]->ensure_index(width_); },
      grain::kTask);
}

std::uint32_t TiledBvh::built_tile_count() const {
  std::uint32_t built = 0;
  for (const auto& tile : tiles_) {
    if (tile->index() != nullptr) ++built;
  }
  return built;
}

TiledUpdateStats TiledBvh::update(std::span<const Vec3> points,
                                  const TileUpdatePolicy& policy) {
  RTNN_CHECK(points.size() == point_count_,
             "tiled update requires the same point count as the build");
  RTNN_CHECK(policy, "tiled update needs a refit-vs-rebuild policy");
  TiledUpdateStats out;

  for (auto& slot : tiles_) {
    const Tile& old_tile = *slot;
    // Touched detection: bitwise position compare, member by member. One
    // linear pass over the cloud in total — the same O(N) scan a
    // monolithic refit pays before it does any tree work.
    bool touched = false;
    for (std::size_t i = 0; i < old_tile.prim_ids_.size(); ++i) {
      const Vec3& now = points[old_tile.prim_ids_[i]];
      const Vec3& was = old_tile.positions_[i];
      if (std::memcmp(&now, &was, sizeof(Vec3)) != 0) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    ++out.tiles_touched;

    // Replace, never mutate: snapshots sharing the old tile keep it.
    auto fresh = make_tile(points, old_tile.prim_ids_);
    if (const WideBvh* old_index = old_tile.index()) {
      if (policy(old_index->sah_inflation()) == TileUpdate::kRefit) {
        // Copy-then-refit: the shared old index stays frozen for earlier
        // snapshots while the copy absorbs the motion.
        auto refitted = std::make_shared<WideBvh>(*old_index);
        refitted->refit(fresh->positions_, width_);
        fresh->publish(std::move(refitted));
        ++out.tile_refits;
      } else {
        Timer timer;
        fresh->publish(build_index(fresh->positions_, width_));
        out.build_seconds += timer.elapsed();
        ++out.tile_rebuilds;
      }
    }
    // else: the tile was never built — stay lazy, motion absorbed free.
    slot = std::move(fresh);
  }

  if (out.tiles_touched > 0) rebuild_top();
  return out;
}

TiledBvhStats TiledBvh::stats() const {
  TiledBvhStats out;
  out.tile_count = tile_count();
  for (const auto& tile : tiles_) {
    const WideBvh* index = tile->index();
    if (index == nullptr) continue;
    ++out.built_tiles;
    const WideBvhStats ws = index->stats();
    out.node_bytes += ws.node_bytes;
    out.total_index_bytes += ws.total_index_bytes;
  }
  // The top tree is part of the resident index too; tiny (one node pair
  // per tile) but accounted, every array of it, so the gauge is the whole
  // two-level footprint.
  out.total_index_bytes += top_.nodes().size() * sizeof(BvhNode) +
                           top_.prim_order().size() * sizeof(std::uint32_t) +
                           top_.prim_aabbs().size() * sizeof(Aabb);
  return out;
}

double TiledBvh::max_sah_inflation() const {
  double worst = 1.0;
  for (const auto& tile : tiles_) {
    if (const WideBvh* index = tile->index()) {
      worst = std::max(worst, index->sah_inflation());
    }
  }
  return worst;
}

void TiledBvh::validate() const {
  RTNN_CHECK(!tiles_.empty(), "tiled index has no tiles");
  RTNN_CHECK(!top_.empty(), "tiled index has no top-level tree");
  RTNN_CHECK(top_.prim_count() == tile_count(),
             "top-level tree must reference each tile exactly once");

  std::vector<bool> seen(point_count_, false);
  std::size_t members = 0;
  for (const auto& tile : tiles_) {
    RTNN_CHECK(!tile->prim_ids_.empty(), "tiled index holds an empty tile");
    RTNN_CHECK(tile->prim_ids_.size() == tile->positions_.size(),
               "tile id/position arrays disagree");
    for (std::size_t i = 0; i < tile->prim_ids_.size(); ++i) {
      const std::uint32_t id = tile->prim_ids_[i];
      RTNN_CHECK(id < point_count_, "tile references an out-of-range point id");
      RTNN_CHECK(!seen[id], "point id appears in more than one tile");
      seen[id] = true;
      ++members;
      RTNN_CHECK(tile->bounds_.contains(Aabb::cube(tile->positions_[i], width_)),
                 "tile bounds do not contain a member AABB");
    }
    if (const WideBvh* index = tile->index()) {
      RTNN_CHECK(index->prim_count() == tile->prim_ids_.size(),
                 "tile index primitive count mismatch");
      index->validate();
    }
  }
  RTNN_CHECK(members == point_count_, "tiles do not partition the point ids");

  // Every top-tree leaf slot names a distinct tile.
  std::vector<bool> tile_seen(tiles_.size(), false);
  for (const std::uint32_t t : top_.prim_order()) {
    RTNN_CHECK(t < tiles_.size(), "top-level leaf references a bad tile");
    RTNN_CHECK(!tile_seen[t], "top-level tree references a tile twice");
    tile_seen[t] = true;
    RTNN_CHECK(top_.prim_aabbs()[t].contains(tiles_[t]->bounds()),
               "top-level primitive box does not cover its tile");
  }
}

}  // namespace rtnn::rt
