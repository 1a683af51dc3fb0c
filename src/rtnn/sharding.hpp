// Spatial sharding: split one large cloud into Morton-contiguous shards,
// route queries to the shards they can touch, and gather per-shard
// results back into one exact answer.
//
// This is the geometry layer under the serving registry's sharded clouds
// (src/engine/sharded_backend.hpp drives it through the SearchBackend
// contract). The split reuses the same Morton machinery the scheduler and
// LBVH already rely on (core/morton.hpp + core/sort.hpp): points sort by
// 63-bit Morton code and cut into contiguous near-equal runs, so each
// shard is a compact spatial region with a tight AABB.
//
// Exactness argument, per query q with radius r and cap K:
//   * Routing sends q to every shard whose tight AABB lies within r of q
//     (the expanded-AABB test). A point can only be a neighbor of q if
//     its shard's AABB is within r, so no candidate is ever missed; KNN
//     is bounded by the same radius (the paper's bounded interface), so
//     the same route is conservative for both modes.
//   * Range gather: shards partition the points, so per-shard result
//     sets are disjoint. Their union, truncated at K, has
//     min(K, sum of per-shard counts) entries — exactly the unsharded
//     min(K, true count), because a shard only truncates when it already
//     holds more than K in-radius points (see gather_shard_results).
//   * KNN gather: a KNN row is the K smallest (dist², id) pairs. Each
//     of the global K lives in some shard and is among that shard's K
//     smallest, provided the shard ranks by global id (ShardedBackend
//     lists each shard's ids ascending, so local id order is global id
//     order). Merging the per-shard rows through one FlatKnnHeaps row per
//     query therefore reproduces the unsharded row exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"
#include "rtnn/types.hpp"

namespace rtnn {

/// The shard layout of one cloud: a partition of the point ids into
/// Morton-contiguous runs, each with a tight AABB for routing.
struct ShardPlan {
  struct Shard {
    /// Global point ids owned by this shard (each id in exactly one
    /// shard), in Morton order of the positions at plan time
    /// (ShardedBackend re-sorts them ascending).
    std::vector<std::uint32_t> point_ids;
    /// Tight bounds over the shard's current positions. Re-tightened on
    /// update_points so routing stays exact as points drift out of the
    /// Morton cells they were assigned by.
    Aabb bounds;
  };
  std::vector<Shard> shards;
  Aabb cloud_bounds;
  std::size_t point_count = 0;
};

/// How many shards a cloud of `points` points wants: ceil(points /
/// shard_threshold), capped at `max_shards`. `shard_threshold` = 0 means
/// sharding is off (always 1); `max_shards` = 0 means no cap — the
/// codebase-wide "0 = unbounded" contract (CloudConfig, batch limits).
std::uint32_t plan_shard_count(std::size_t points, std::size_t shard_threshold,
                               std::uint32_t max_shards);

/// Splits `points` into `num_shards` Morton-contiguous shards of
/// near-equal size (the first `n % num_shards` shards hold one extra
/// point). `num_shards` is clamped to the point count.
ShardPlan plan_shards(std::span<const Vec3> points, std::uint32_t num_shards);

/// Squared distance from `p` to the closest point of `box` (0 inside;
/// +inf for an empty box).
float aabb_distance2(const Aabb& box, const Vec3& p);

/// Which queries each shard must answer.
struct ShardRoute {
  /// rows[s] = query rows (ascending) within `radius` of shard s's
  /// bounds. A row near a shard boundary appears under every shard it
  /// can reach; a row out of range of every shard appears nowhere (its
  /// result is empty).
  std::vector<std::vector<std::uint32_t>> rows;
  /// Total routed (query, shard) pairs: fanout / queries is the
  /// scatter amplification the boundary overlap costs.
  std::uint64_t fanout = 0;
};

/// Routes `queries` to the shards of `plan` under the expanded-AABB test
/// (shard AABB within `radius` of the query).
ShardRoute route_queries(const ShardPlan& plan, std::span<const Vec3> queries,
                         float radius);

/// One shard's contribution to a scattered search: the routed rows it
/// answered, its local-id -> global-id map, and its shard-local result
/// (one row per entry of `rows`, neighbor slots holding shard-local
/// point indices).
struct ShardPartial {
  const std::vector<std::uint32_t>* rows = nullptr;
  const std::vector<std::uint32_t>* point_ids = nullptr;
  NeighborResult result;
};

/// Merges per-shard partial results into one exact NeighborResult over
/// all `queries` (global point ids):
///   * range + indices: ascending-id union of the disjoint per-shard
///     sets, truncated at K;
///   * KNN + indices: FlatKnnHeaps merge on distances recomputed from
///     the global `points`, extracted ascending by (dist², id);
///   * counts only (either mode): per-query sum of partial counts,
///     clamped at K — exact for both modes (see the header comment).
NeighborResult gather_shard_results(std::span<const Vec3> points,
                                    std::span<const Vec3> queries,
                                    const SearchParams& params,
                                    std::span<const ShardPartial> partials);

}  // namespace rtnn
