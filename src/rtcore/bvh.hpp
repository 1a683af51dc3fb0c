// Bounding Volume Hierarchy over axis-aligned bounding boxes.
//
// This is the data structure the RT cores traverse in hardware (paper
// section 2.2/2.3). Every acceleration structure is built from it and
// then keeps only its compressed 8-wide collapse (WideBvh), which also
// refits itself. Besides the tiled index's top-level tree, only the paper
// characterizations (warp-lockstep SIMT, cache replay, per-node counts of
// Figures 5–8) walk a binary tree: one they build themselves and launch
// through ox::launch's rt::Bvh overload. We build a binary LBVH:
// primitives are sorted by the 63-bit Morton code of their AABB centroid
// and the tree is formed by recursively splitting the sorted range at the
// highest differing Morton bit (Karras 2012-style top-down formulation),
// then node bounds are computed bottom-up. Every leaf holds one primitive,
// as in RTNN, where each point is its own AABB primitive and OptiX has no
// leaf-size setting. So a range of len primitives fills exactly 2·len − 1
// pre-order slots, and every node is written straight to its slot. Above
// a size cutoff the split runs as parallel subtree tasks, each the first
// to write its own range of the node array; the arrays are the same bytes
// at any thread count. Construction cost is dominated by the radix sort
// and is linear in the number of AABBs — matching the paper's empirical
// observation (Figure 15, R² = 0.996) which RTNN's bundling cost model
// depends on (T_build = k1 · M, paper equation (3)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/uninit_vector.hpp"
#include "core/vec3.hpp"

namespace rtnn::rt {

/// One BVH node. Layout note: `count == 0` marks an interior node whose
/// children are `left`/`right`; a leaf has `count == 1` and holds the one
/// primitive at slot `first` of Bvh::prim_order().
struct BvhNode {
  Aabb bounds;
  std::uint32_t left = 0;   // interior: left child index
  std::uint32_t right = 0;  // interior: right child index
  std::uint32_t first = 0;  // leaf: its slot in prim_order()
  std::uint32_t count = 0;  // leaf: 1 (0 = interior)

  bool is_leaf() const { return count > 0; }
};

struct BvhStats {
  std::uint32_t node_count = 0;
  std::uint32_t leaf_count = 0;
  std::uint32_t max_depth = 0;
  double sah_cost = 0.0;  // relative surface-area-heuristic cost
};

class Bvh {
 public:
  Bvh() = default;

  /// Builds the hierarchy over `prims`, one primitive per leaf. The Bvh
  /// keeps its own copy of the primitive AABBs (like a GPU acceleration
  /// structure, which owns its device-side geometry snapshot).
  void build(std::span<const Aabb> prims);

  /// Point-cloud fast path: builds over Aabb::cube(centers[i], width),
  /// writing the boxes straight into the Bvh's own copy — the RTNN shape,
  /// with no caller-side box array.
  void build(std::span<const Vec3> centers, float width);

  bool empty() const { return nodes_.empty(); }
  std::uint32_t root() const { return 0; }

  std::span<const BvhNode> nodes() const { return nodes_; }
  /// Primitive ids in leaf order: a leaf's `first` indexes into this
  /// array, which maps slots back to caller primitive ids.
  std::span<const std::uint32_t> prim_order() const { return prim_order_; }
  std::span<const Aabb> prim_aabbs() const { return prim_aabbs_; }

  std::uint32_t prim_count() const { return static_cast<std::uint32_t>(prim_aabbs_.size()); }
  const Aabb& scene_bounds() const { return scene_bounds_; }

  BvhStats stats() const;

  /// Structural invariant check (used by tests): every leaf holds exactly
  /// one primitive, every primitive appears in exactly one leaf, every
  /// interior node's bounds contain both children's bounds, every leaf's
  /// bounds contain its primitive's AABB, child indices are in range and
  /// acyclic. Throws rtnn::Error on failure.
  void validate() const;

 private:
  template <typename PrimBox>
  void build_impl(std::size_t n, PrimBox prim_box);

  // Written first by the parallel tasks that compute them.
  UninitVector<BvhNode> nodes_;
  std::vector<std::uint32_t> prim_order_;
  UninitVector<Aabb> prim_aabbs_;
  Aabb scene_bounds_;
  std::uint32_t max_depth_seen_ = 0;
};

}  // namespace rtnn::rt
