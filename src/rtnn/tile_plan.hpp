// The tile planner: split one cloud into Morton-contiguous tiles.
//
// This is the membership behind the two-level index (rt::TiledBvh, built
// by SearchContext::build_tiled_accel_width). The split reuses the query
// scheduler's order (schedule_queries, rtnn/scheduler.hpp): points sort by
// 63-bit Morton code over the cloud bounds and cut into contiguous
// near-equal runs, so each tile is a compact spatial region with a tight
// AABB for the top-level tree. The split is a pure function of the
// positions: the same cloud always yields the same tiles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vec3.hpp"

namespace rtnn {

/// How many tiles a cloud of `points` points wants: ceil(points /
/// tile_threshold), capped at `max_tiles`. `tile_threshold` = 0 means
/// tiling is off (always 1); `max_tiles` = 0 means no cap — the
/// codebase-wide "0 = unbounded" contract (TileOptions, batch limits).
std::uint32_t plan_tile_count(std::size_t points, std::size_t tile_threshold,
                              std::uint32_t max_tiles);

/// Splits `points` into `num_tiles` Morton-contiguous tiles of near-equal
/// size (the first `n % num_tiles` tiles hold one extra point), each
/// listing its point ids in Morton order. Every id lands in exactly one
/// tile. `num_tiles` is clamped to the point count; one tile keeps the
/// identity order.
std::vector<std::vector<std::uint32_t>> plan_tiles(std::span<const Vec3> points,
                                                   std::uint32_t num_tiles);

}  // namespace rtnn
