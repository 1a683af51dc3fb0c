// Exhaustive-search reference implementation.
//
// O(N·Q) but trivially correct: the oracle every other search path is
// property-tested against, and the small-input baseline in micro benches.
#pragma once

#include <span>

#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"

namespace rtnn::baselines {

/// All points within `radius` of each query, up to `k` per query.
/// Slots are filled in ascending point-index order (deterministic).
/// `store_indices` = false returns counts only.
NeighborResult brute_force_range(std::span<const Vec3> points, std::span<const Vec3> queries,
                                 float radius, std::uint32_t k, bool store_indices = true);

/// The `k` smallest (distance², point index) pairs within `radius` of
/// each query, in that order. `store_indices` = false returns counts only.
NeighborResult brute_force_knn(std::span<const Vec3> points, std::span<const Vec3> queries,
                               float radius, std::uint32_t k, bool store_indices = true);

}  // namespace rtnn::baselines
