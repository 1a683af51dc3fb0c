// Octree neighbor search — the PCLOctree analog.
//
// PCL's octree is the *space-partitioning* hierarchical structure the
// paper contrasts with the BVH's object partitioning (section 6.1: "Why
// These Baselines?"). Cubic root volume, recursive 8-way subdivision down
// to a leaf capacity; range search prunes by sphere/cell overlap, KNN by
// best-first descent. PCL's GPU octree only supports K = 1 for KNN (the
// paper notes this); ours implements general K but the Figure 11/14
// harness invokes it with K = 1 where the paper did.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"

namespace rtnn::baselines {

struct OctreeOptions {
  std::uint32_t leaf_capacity = 32;
  std::uint32_t max_depth = 21;
};

class Octree {
 public:
  using Options = OctreeOptions;

  void build(std::span<const Vec3> points, const Options& options = Options{});

  bool built() const { return !nodes_.empty(); }

  /// Up to `k` points within `radius` of each query (`store_indices` =
  /// false: counts only).
  NeighborResult range_search(std::span<const Vec3> queries, float radius,
                              std::uint32_t k, bool store_indices = true) const;

  /// The K smallest (distance², point index) pairs within `radius`, in
  /// that order (`store_indices` = false: counts only).
  NeighborResult knn_search(std::span<const Vec3> queries, float radius,
                            std::uint32_t k, bool store_indices = true) const;

  std::size_t node_count() const { return nodes_.size(); }

  /// Structural invariants (tests): every point in exactly one leaf, each
  /// point inside its leaf's cell, children tile the parent cell.
  void validate() const;

 private:
  /// A cell stores its exact extent. Children split it at the plane
  /// octant_of tests (split_of(cell)), so a child's bounds are that
  /// plane's bits: a center ± half sum can round past the points a cell
  /// holds, by the whole cloud's offset once one far outlier stretches
  /// the root to ~3e38.
  struct Node {
    Aabb cell;
    std::uint32_t children = 0;   // index of first of 8 children (0 = leaf)
    std::uint32_t first = 0;      // leaf: offset into point_ids_
    std::uint32_t count = 0;      // leaf: number of points
    bool is_leaf() const { return children == 0; }
  };

  void subdivide(std::uint32_t node_index, std::vector<std::uint32_t>& ids,
                 std::uint32_t depth, const Options& options);

  std::vector<Vec3> points_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> point_ids_;
};

}  // namespace rtnn::baselines
