// Compressed 8-wide BVH — the wall-clock traversal structure.
//
// The binary LBVH (`Bvh`) stays the simulation-fidelity structure: the
// warp-lockstep engine and the cache simulator walk it node by node the
// way the SIMT hardware does. For wall-clock runs the independent-path
// engine instead traverses this collapsed form, where every node holds up
// to eight children whose AABBs are quantized to 8-bit offsets against a
// per-node anchor (the compressed wide BVH of Ylitie et al., HPG 2017).
// One ray-vs-node step decodes and tests all eight child boxes at once
// with AVX2 (scalar fallback when RTNN_ENABLE_AVX2=OFF).
//
// The collapse is the standard wide-BVH recipe of production tracers:
// starting from a binary subtree root, greedily expand the frontier node
// with the largest surface area (the one a random ray is most likely to
// visit) until eight slots are filled or only leaves remain, then emit one
// wide node per frontier, quantizing each slot straight from the bounds
// of the binary frontier node behind it. Fewer, fatter, smaller nodes mean
// fewer stack operations and fewer dependent cache misses per ray — the
// software analog of what the RT cores' wide tree does in hardware.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "rtcore/bvh.hpp"

namespace rtnn::rt {

inline constexpr std::uint32_t kWideBvhWidth = 8;

/// A leaf child: a slot range in prim_order(), same contract as the binary
/// BvhNode's first/count.
struct WideLeaf {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

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
/// ordinal: the BFS collapse allocates a node's interior children at
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
  /// Leaf slot: index into WideBvh::leaves().
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

struct WideBvhStats {
  std::uint32_t node_count = 0;
  std::uint32_t leaf_count = 0;
  std::uint32_t max_depth = 0;
  double avg_children = 0.0;  // mean valid children per node (fill factor * 8)
  /// Bytes of the compressed node array.
  std::uint64_t node_bytes = 0;
  /// node_bytes + the leaf records, primitive order and leaf-ordered
  /// primitive AABBs — every array the wide walk reads.
  std::uint64_t total_index_bytes = 0;
};

/// The compressed 8-wide collapse of a binary Bvh. Self-contained: it
/// snapshots the source's primitive order and (leaf-ordered) AABBs, so the
/// source Bvh may be destroyed after build() — though refit_from() needs
/// it, or an identically shaped refit of it.
class WideBvh {
 public:
  WideBvh() = default;

  /// Collapses `source` into compressed wide nodes. Topology and the child
  /// tables are decided in one cheap serial pass; quantizing each slot
  /// from the bounds of the binary node behind it runs in parallel over
  /// the wide nodes (inline in the serial pass on one thread). The binary
  /// node feeding each child slot is recorded so later refit_from() calls
  /// can re-quantize without re-collapsing.
  void build(const Bvh& source);

  /// Re-quantizes every node (and refreshes the leaf-ordered primitive
  /// AABBs) from an already-refitted `source` — which must be the same
  /// tree build() last collapsed, with the same topology. The collapse
  /// decision (which binary node landed in which slot) is reused verbatim;
  /// only boxes are rewritten, in parallel. Together with Bvh::refit this
  /// keeps both traversal representations coherent at a fraction of a
  /// rebuild.
  void refit_from(const Bvh& source);

  bool empty() const { return nodes_.empty(); }
  std::uint32_t root() const { return 0; }

  std::span<const CompressedWideNode> compressed_nodes() const { return nodes_; }
  std::span<const WideLeaf> leaves() const { return leaves_; }
  std::span<const std::uint32_t> prim_order() const { return prim_order_; }

  /// The primitive AABBs in leaf-slot order: ordered_prim_aabbs()[s] is a
  /// bitwise copy of the source's prim_aabbs()[prim_order()[s]]. The leaf
  /// re-test reads this array, so its exact-AABB fetches stream
  /// contiguously in traversal order instead of gathering through
  /// prim_order.
  std::span<const Aabb> ordered_prim_aabbs() const { return ordered_prim_aabbs_; }

  std::uint32_t prim_count() const { return static_cast<std::uint32_t>(prim_order_.size()); }
  std::uint32_t max_depth() const { return max_depth_; }

  WideBvhStats stats() const;

  /// Structural invariant check (used by tests): children packed from slot
  /// 0, every node and leaf reachable exactly once, the consecutive-
  /// children metadata, every primitive in exactly one leaf slot, and every
  /// dequantized slot box containing the exact bounds of its subtree
  /// (min/max unions of the leaf-ordered AABBs). Throws rtnn::Error on
  /// failure.
  void validate() const;

 private:
  /// Rebuilds ordered_prim_aabbs_ from the source's id-ordered boxes and
  /// prim_order_. Parallel over slots.
  void refresh_ordered_prims(std::span<const Aabb> prim_aabbs);

  std::vector<CompressedWideNode> nodes_;
  std::vector<WideLeaf> leaves_;
  std::vector<std::uint32_t> prim_order_;
  std::vector<Aabb> ordered_prim_aabbs_;
  std::uint32_t max_depth_ = 0;
  /// slot_sources_[node][slot] = binary node id whose bounds that slot
  /// quantizes (the collapse frontier), kept so refit_from() is a flat
  /// parallel pass. 32 B per 80 B node.
  std::vector<std::array<std::uint32_t, kWideBvhWidth>> slot_sources_;
  std::uint32_t source_node_count_ = 0;  // binary node count build() saw
};

}  // namespace rtnn::rt
