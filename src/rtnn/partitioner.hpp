// Query partitioning via megacells (paper section 5.1).
//
// For each query, grow a box of grid cells ("megacell") outward from the
// query's cell until it contains at least K points or would pierce the
// r-sphere; queries with equal growth depth form a partition, and each
// partition gets the smallest AABB width that preserves correctness:
//
//   * range search: any point whose AABB (width w, centered on the point)
//     contains the query is reported — safe if w is the megacell width
//     (+1 cell of slop because the query sits anywhere inside its central
//     cell, a refinement over the paper's width). The sphere test is
//     elided when w·√3/2 ≤ r, i.e. the megacell cannot poke out of the
//     sphere (section 5.1's "significant performance gains").
//
//   * KNN search: the K nearest neighbors are contained in the
//     circumsphere of the megacell (width a, Figure 10c), so with the
//     same cell c of slop the width is that sphere's diameter √3·(a + c),
//     capped at 2r. The paper's equi-volume heuristic
//     2·cbrt(3/(4π))·(a + c) is not offered: it sees only points within
//     ∞-distance 0.62·(a + c) of the query and misses true neighbors out
//     to 0.87·(a + c). Partitions whose megacell hit the sphere bound
//     fall back to w = 2r.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vec3.hpp"
#include "rtnn/grid_index.hpp"
#include "rtnn/types.hpp"

namespace rtnn {

struct Partition {
  /// Megacell growth steps shared by the partition's queries.
  std::uint32_t steps = 0;
  /// Megacell width a = (2·steps+1)·cell.
  float megacell_width = 0.0f;
  /// AABB width used to build this partition's BVH.
  float aabb_width = 0.0f;
  /// Range search only: the sphere test can be skipped (w·√3/2 ≤ r).
  bool skip_sphere_test = false;
  /// Megacell reached the sphere bound before finding K points.
  bool hit_sphere_limit = false;
  /// Point density estimate ρ = K / a³ (paper section 5.2).
  double density = 0.0;
  /// Query ids, in scheduled order.
  std::vector<std::uint32_t> query_ids;
};

struct PartitionSet {
  std::vector<Partition> partitions;
  /// Grid cell size used (megacell widths are odd multiples of it).
  float cell_size = 0.0f;
};

/// Partitions `queries` (visited in `order`; pass the scheduled order so
/// partitions inherit spatial coherence) against the point grid.
PartitionSet partition_queries(const GridIndex& grid, std::span<const Vec3> queries,
                               std::span<const std::uint32_t> order,
                               const SearchParams& params);

/// The AABB width for a KNN partition of megacell width `a`: √3·a, the
/// diameter of the megacell's circumsphere, which holds its K points.
float knn_aabb_width(float megacell_width);

/// Whether a range launch at `aabb_width` may skip the sphere test: every
/// point whose AABB contains the query is provably within `radius`, as
/// |p-q|∞ ≤ w/2 ⇒ |p-q|₂ ≤ w·√3/2 ≤ r.
bool sphere_test_elidable(float aabb_width, float radius);

}  // namespace rtnn
