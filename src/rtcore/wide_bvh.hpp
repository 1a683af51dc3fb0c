// Compressed 8-wide BVH — the one resident traversal structure.
//
// Every acceleration structure keeps only this tree; the binary LBVH
// (`Bvh`) it is collapsed from is dropped after the build. The
// warp-lockstep characterization walks take a binary tree their caller
// builds (ox::launch's rt::Bvh overload).
// Every node holds up to eight children whose AABBs are quantized to
// 8-bit offsets against a per-node anchor (the compressed wide BVH of
// Ylitie et al., HPG 2017). One ray-vs-node step decodes and tests all
// eight child boxes at once with AVX2 (scalar fallback when
// RTNN_ENABLE_AVX2=OFF).
//
// The collapse is the standard wide-BVH recipe of production tracers:
// starting from a binary subtree root, greedily expand the frontier node
// with the largest surface area (the one a random ray is most likely to
// visit) until eight slots are filled or only leaves remain, then emit one
// wide node per frontier, quantizing each slot straight from the bounds
// of the binary frontier node behind it. Fewer, fatter, smaller nodes mean
// fewer stack operations and fewer dependent cache misses per ray — the
// software analog of what the RT cores' wide tree does in hardware.
//
// The collapse runs breadth-first from the root. On a large tree (32k
// binary nodes or more) it stops once 256 wide nodes are pending, and each
// pending node's subtree collapses as a task of its own into a contiguous
// range of nodes and leaf records: the subtree table. A first parallel
// pass counts each subtree's nodes, so the second writes them in place.
// The cut depends on the tree alone, so the arrays are byte-identical at
// any thread count, and every node's children stay consecutive and after
// it.
//
// The tree refits itself: exact slot bounds re-united bottom-up from the
// leaf boxes, then re-quantized, one subtree per task. Per node it records
// the slots under each binary node its collapse expanded, so every binary
// node's bounds, and the binary tree's SAH the refit policy reads, come
// out on the way.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/uninit_vector.hpp"
#include "rtcore/bvh.hpp"

namespace rtnn::rt {

inline constexpr std::uint32_t kWideBvhWidth = 8;

/// One 8-wide node: each child AABB stored as 8-bit fixed-point offsets
/// quantized against this node's own content bounds — a per-node anchor
/// origin (3 x FP32) plus per-axis power-of-two scale exponents.
/// Quantization is *conservative* (mins round down, maxs round up), so a
/// dequantized box always contains the exact bounds of the subtree behind
/// its slot and traversal decisions can only widen, never miss; the exact
/// primitive AABB test at the leaves keeps candidate sets identical to the
/// binary walk's.
///
/// Child references are narrowed to two 32-bit bases plus a per-slot
/// ordinal: the collapse allocates a node's interior children at
/// consecutive wide-node indices and its leaf children at consecutive
/// leaf-record indices, so `meta` only needs a leaf flag and a 3-bit
/// ordinal. Children are packed from slot 0; slots >= count are empty and
/// masked off by the traversal via valid_mask(). 80 bytes per node.
struct CompressedWideNode {
  float anchor_x, anchor_y, anchor_z;   // quantization origin (content lo)
  std::int8_t exp_x, exp_y, exp_z;      // per-axis scale = 2^exp
  std::uint8_t count = 0;               // valid children, packed from slot 0
  std::uint32_t child_base = 0;         // first interior child's node index
  std::uint32_t leaf_base = 0;          // first leaf child's leaf index
  std::uint8_t meta[kWideBvhWidth];     // kMetaLeaf | ordinal within its kind
  std::uint8_t qlox[kWideBvhWidth], qloy[kWideBvhWidth], qloz[kWideBvhWidth];
  std::uint8_t qhix[kWideBvhWidth], qhiy[kWideBvhWidth], qhiz[kWideBvhWidth];

  static constexpr std::uint8_t kMetaLeaf = 0x80u;
  static constexpr std::uint8_t kMetaOrdinal = 0x07u;

  std::uint32_t valid_mask() const { return (1u << count) - 1u; }
  bool is_leaf_slot(std::uint32_t i) const { return (meta[i] & kMetaLeaf) != 0; }
  /// Interior slot: wide-node index of the child.
  std::uint32_t child_index(std::uint32_t i) const {
    return child_base + (meta[i] & kMetaOrdinal);
  }
  /// Leaf slot: index of its leaf record in WideBvh::leaves().
  std::uint32_t leaf_index(std::uint32_t i) const {
    return leaf_base + (meta[i] & kMetaOrdinal);
  }
};
static_assert(sizeof(CompressedWideNode) == 80,
              "compressed node must stay ~1 cache line of traversal traffic");

/// 2^e as a float, for e in the quantization exponent range [-126, 127].
/// Exact (a pure exponent-field construction), shared by the build-time
/// quantizer and both traversal decoders so dequantized bounds are
/// bitwise-identical everywhere.
inline float quant_scale(std::int8_t e) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(e + 127) << 23);
}

/// Dequantizes slot `i` of a compressed node with the exact arithmetic the
/// traversal kernels use: anchor + float(q) * 2^exp, where the product is
/// exact (8-bit integer times a power of two) and the add rounds once.
inline Aabb dequantize_slot(const CompressedWideNode& node, std::uint32_t i) {
  const float sx = quant_scale(node.exp_x);
  const float sy = quant_scale(node.exp_y);
  const float sz = quant_scale(node.exp_z);
  return Aabb{{node.anchor_x + static_cast<float>(node.qlox[i]) * sx,
               node.anchor_y + static_cast<float>(node.qloy[i]) * sy,
               node.anchor_z + static_cast<float>(node.qloz[i]) * sz},
              {node.anchor_x + static_cast<float>(node.qhix[i]) * sx,
               node.anchor_y + static_cast<float>(node.qhiy[i]) * sy,
               node.anchor_z + static_cast<float>(node.qhiz[i]) * sz}};
}

/// Quantizes `node`'s valid slots from their exact bounds: the anchor is
/// the union's minimum, each axis takes the smallest exponent, from its
/// extent's binary exponent minus 8 up, at which every slot fits, and each
/// lane is the largest q whose dequantized value is <= the slot's lo (the
/// smallest q whose value is >= its hi). `slots` holds eight boxes; those
/// at and past node.count are ignored, and their lanes are inverted (lo
/// 255, hi 0). The child table (count, bases, meta) stays untouched. Every
/// lane is uniquely defined, so the AVX2 and scalar versions write the
/// same bytes.
void quantize_node(CompressedWideNode& node, const Aabb* slots);

/// Slot masks of the binary nodes one wide node's collapse expanded: bit i
/// of entry j is set when slot i lies under the j-th expansion; unused
/// entries are 0 (each expansion adds one slot to the first two).
using ExpandMasks = std::array<std::uint8_t, kWideBvhWidth - 2>;

struct WideBvhStats {
  std::uint32_t node_count = 0;
  std::uint32_t leaf_count = 0;  // leaf records: one per primitive
  std::uint32_t max_depth = 0;
  double avg_children = 0.0;  // mean valid children per node (fill factor * 8)
  /// Bytes of the compressed node array.
  std::uint64_t node_bytes = 0;
  /// node_bytes + the leaf records (4 B each), primitive order,
  /// leaf-ordered primitive AABBs and collapse records (expand masks,
  /// subtree table) — every array the tree keeps resident.
  std::uint64_t total_index_bytes = 0;
};

/// The compressed 8-wide collapse of a binary Bvh. Self-contained: it
/// snapshots the source's primitive order and (leaf-ordered) AABBs, and
/// refits without it, so the source Bvh may be destroyed after build().
/// Like its source, every leaf holds one primitive: a leaf slot names one
/// leaf record, and the record is that primitive's slot in prim_order().
class WideBvh {
 public:
  WideBvh() = default;

  /// Collapses `source` into compressed wide nodes: topology, child tables
  /// and expand masks, each node quantized from the exact bounds of the
  /// binary nodes behind its slots as it is emitted. A large tree counts
  /// each subtree's nodes in one parallel pass and collapses it straight
  /// into its ranges in a second; there is no separate quantizing sweep
  /// and no copy of the pieces.
  void build(const Bvh& source);

  /// Refits to moved boxes of the same primitive ids — the driver-side AS
  /// update (OPTIX_BUILD_OPERATION_UPDATE): linear, sort-free, topology
  /// and collapse untouched. Slot bounds are exact min/max unions folded
  /// in primitive order, the bits a refit of the source binary tree gives
  /// the node behind each slot. On failure (an empty box) the bounds are
  /// unspecified; rebuild.
  void refit(std::span<const Aabb> prims);

  /// Point-cloud fast path: refit over Aabb::cube(centers[i], width)
  /// without materializing the box array — the RTNN frame shape.
  void refit(std::span<const Vec3> centers, float width);

  /// The source binary tree's SAH cost relative to its cost at build():
  /// 1.0 until refit()s stretch the boxes. The rebuild policy's quality
  /// signal (CostModel::max_sah_inflation).
  double sah_inflation() const { return sah_inflation_; }

  /// Union of every primitive box (the binary root's bounds).
  const Aabb& scene_bounds() const { return scene_bounds_; }

  bool empty() const { return nodes_.empty(); }
  std::uint32_t root() const { return 0; }

  std::span<const CompressedWideNode> compressed_nodes() const { return nodes_; }
  /// The leaf records: leaves()[node.leaf_index(i)] is the prim_order()
  /// slot of leaf slot i's one primitive.
  std::span<const std::uint32_t> leaves() const { return leaves_; }
  std::span<const std::uint32_t> prim_order() const { return prim_order_; }

  /// The primitive AABBs in leaf-slot order: ordered_prim_aabbs()[s] is a
  /// bitwise copy of the box primitive prim_order()[s] was last built or
  /// refit with. The leaf re-test reads this array, so its exact-AABB
  /// fetches stream contiguously in traversal order instead of gathering
  /// through prim_order.
  std::span<const Aabb> ordered_prim_aabbs() const { return ordered_prim_aabbs_; }

  /// The collapse records: per-node expand masks and the subtree table.
  /// With S = subtree_offsets().size() - 1 and T = subtree_offsets()[0] -
  /// S, nodes [0, T) are the top of the tree, node T + k is the root of
  /// subtree k and [subtree_offsets()[k], subtree_offsets()[k + 1]) holds
  /// the rest of it. A tree under the cut is all top: S = 0.
  std::span<const ExpandMasks> expand_masks() const { return expand_masks_; }
  std::span<const std::uint32_t> subtree_offsets() const { return subtree_offsets_; }

  std::uint32_t prim_count() const { return static_cast<std::uint32_t>(prim_order_.size()); }

  WideBvhStats stats() const;

  /// Structural invariant check (used by tests): children packed from slot
  /// 0, every node and leaf record reachable exactly once, the consecutive-
  /// children metadata, the collapse records (every subtree's nodes in its
  /// range), every leaf record one in-range prim_order() slot whose
  /// primitive appears in exactly one leaf, and every dequantized slot box
  /// containing the exact bounds of its subtree (min/max unions of the
  /// leaf-ordered AABBs). Throws rtnn::Error on failure.
  void validate() const;

 private:
  /// Re-quantizes every node from the leaf-ordered boxes, bottom-up, one
  /// subtree per task and then the top; refreshes scene_bounds_ and
  /// returns the binary tree's SAH cost.
  double sweep();
  template <typename PrimBox>
  void refit_impl(std::size_t prim_count, PrimBox prim_box);

  // Written first by the parallel tasks that compute them.
  UninitVector<CompressedWideNode> nodes_;
  UninitVector<std::uint32_t> leaves_;  // one prim_order() slot per leaf
  UninitVector<std::uint32_t> prim_order_;
  UninitVector<Aabb> ordered_prim_aabbs_;
  UninitVector<ExpandMasks> expand_masks_;  // 6 B per 80 B node
  std::vector<std::uint32_t> subtree_offsets_;  // the sweep's parallel schedule
  std::uint32_t max_depth_ = 0;
  Aabb scene_bounds_;
  double baseline_sah_ = 0.0;  // the SAH cost of the build's boxes
  double sah_inflation_ = 1.0;
};

}  // namespace rtnn::rt
