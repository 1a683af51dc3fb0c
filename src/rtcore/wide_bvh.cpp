// Collapse, quantization and refit of the compressed wide BVH.
//
// Each CompressedWideNode encodes its eight child AABBs as 8-bit offsets
// from a per-node anchor at per-axis power-of-two scales, quantized from
// the exact bounds of the subtree behind each slot: the binary node's
// bounds at build, min/max unions of the leaf boxes re-united bottom-up
// at every refit (the same bits).
// The encoding is *conservative by construction*: each lane is the
// largest (lo) or smallest (hi) q whose exactly-dequantized value (the
// same `anchor + float(q) * 2^exp` expression both traversal decoders
// evaluate) brackets the exact bound from the correct side, found by a
// bit-by-bit search over the monotone dequantization. Traversal against
// dequantized boxes can therefore only visit a superset of the nodes an
// exact-bounds walk visits — never miss — and the exact primitive-AABB
// re-test at the leaves keeps candidate sets identical.
//
// Scale selection starts from the binary exponent of the node's content
// extent and retries with a doubled scale in the rare case float rounding
// leaves the top of the range unreachable at q = 255 (e.g. a tiny extent
// against a huge anchor magnitude). At the exponent ceiling 255 * 2^127
// overflows to +inf, which trivially bounds any finite box, so the retry
// always terminates.
#include "rtcore/wide_bvh.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <limits>
#include <vector>

#ifdef RTNN_HAVE_AVX2
#include <immintrin.h>
#endif

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace rtnn::rt {

namespace {

/// The binary nodes behind one wide node's slots (the collapse frontier).
using Frontier = std::array<std::uint32_t, kWideBvhWidth>;

/// Grows `frontier` (binary node ids under one wide node, starting from
/// its binary root's two children) by repeatedly replacing the interior
/// entry with the largest surface area — the child a random ray is most
/// likely to enter — with its two children, until all eight slots are used
/// or only leaves remain, and records each expansion's slot mask. Returns
/// the frontier size. Areas are computed once per entry (-1 marks a
/// leaf), not rescanned.
std::uint32_t collapse_frontier(std::span<const BvhNode> bin_nodes, Frontier& frontier,
                                ExpandMasks& expanded) {
  const auto entry_area = [&](std::uint32_t id) {
    const BvhNode& node = bin_nodes[id];
    return node.is_leaf() ? -1.0f : node.bounds.surface_area();
  };
  std::uint32_t size = 2;
  float area[kWideBvhWidth];
  for (std::uint32_t i = 0; i < size; ++i) area[i] = entry_area(frontier[i]);
  // Expansion j splits the entry at split_at[j] into itself (left child)
  // and the new entry at 2 + j (right child).
  std::uint32_t split_at[kWideBvhWidth - 2];
  std::uint32_t n_expanded = 0;
  while (size < kWideBvhWidth) {
    std::uint32_t expand = kWideBvhWidth;  // sentinel: nothing to expand
    float best_area = -1.0f;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (area[i] > best_area) {
        best_area = area[i];
        expand = i;
      }
    }
    if (expand == kWideBvhWidth) break;  // all leaves
    split_at[n_expanded++] = expand;
    const BvhNode& node = bin_nodes[frontier[expand]];
    frontier[expand] = node.left;
    area[expand] = entry_area(node.left);
    frontier[size] = node.right;
    area[size] = entry_area(node.right);
    ++size;
  }
  // Undo the expansions last-first: each merges the right child's slots
  // back into the entry it split from, which then spans the expansion.
  std::uint8_t cover[kWideBvhWidth];
  for (std::uint32_t i = 0; i < size; ++i) cover[i] = static_cast<std::uint8_t>(1u << i);
  expanded.fill(0);
  for (std::uint32_t j = n_expanded; j-- > 0;) {
    cover[split_at[j]] |= cover[2 + j];
    expanded[j] = cover[split_at[j]];
  }
  return size;
}

constexpr int kExpMin = -126;  // quant_scale()'s normal-float range
constexpr int kExpMax = 127;

/// Smallest starting exponent such that 255 * 2^e plausibly covers
/// `extent`: its binary exponent (frexp's) minus 8. A zero or denormal
/// extent starts at the bottom of the range; an infinite one (an axis
/// spanning more than FLT_MAX) at 121, the smallest exponent at which
/// 255 * 2^e exceeds FLT_MAX. The caller's retry loop handles the
/// rounding corner cases.
int initial_exponent(float extent) {
  if (!(extent > 0.0f)) return kExpMin;
  const int biased = static_cast<int>(std::bit_cast<std::uint32_t>(extent) >> 23);
  return std::clamp(biased - 126 - 8, kExpMin, kExpMax);
}

/// The slot bounds of one node, gathered per axis: lane i of axis a is
/// slot i's bound on that axis.
struct AxisLanes {
  alignas(32) float lo[3][kWideBvhWidth];
  alignas(32) float hi[3][kWideBvhWidth];
};

/// Quantizes all eight lanes of the three axes, axis a at anchor[a] and
/// scale 2^e[a], and returns the axes on which some valid lane (bit i of
/// `valid`) falls short: its hi is unreachable even at q = 255, and the
/// axis must retry at a larger scale. Both searches are exact because
/// dequant(q) = anchor + float(q) * 2^e is monotone in q and anchor is at
/// most every valid lo: qlo is built bit by bit as the largest q with
/// dequant(q) <= lo, and qhi counts the q with dequant(q) < hi (at most
/// 255), which is the smallest q with dequant(q) >= hi unless even q = 255
/// falls short. One pass of eight steps serves the three axes' six
/// independent searches. Lanes outside `valid` are computed and ignored.
#ifdef RTNN_HAVE_AVX2
std::uint32_t quantize_lanes(const AxisLanes& lanes, const float* anchor, const int* e,
                             std::uint32_t valid, std::uint8_t* const* qlo_out,
                             std::uint8_t* const* qhi_out) {
  __m256 a8[3], s8[3], lo8[3], hi8[3];
  __m256i qlo[3], qhi[3];
  for (int x = 0; x < 3; ++x) {
    a8[x] = _mm256_set1_ps(anchor[x]);
    s8[x] = _mm256_set1_ps(quant_scale(static_cast<std::int8_t>(e[x])));
    lo8[x] = _mm256_load_ps(lanes.lo[x]);
    hi8[x] = _mm256_load_ps(lanes.hi[x]);
    qlo[x] = _mm256_setzero_si256();
    qhi[x] = _mm256_setzero_si256();
  }
  // The traversal decoders' arithmetic; no FMA (-mavx2 alone does not
  // license it, and q * 2^e is exact anyway).
  const auto dequant = [&](__m256i q, int x) {
    return _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(q), s8[x]), a8[x]);
  };
  for (int bit = 128; bit != 0; bit >>= 1) {
    const __m256i step = _mm256_set1_epi32(bit);
    const __m256i below = _mm256_set1_epi32(bit - 1);
    for (int x = 0; x < 3; ++x) {
      const __m256i lo_probe = _mm256_or_si256(qlo[x], step);
      const __m256 lo_fits = _mm256_cmp_ps(dequant(lo_probe, x), lo8[x], _CMP_LE_OQ);
      qlo[x] = _mm256_blendv_epi8(qlo[x], lo_probe, _mm256_castps_si256(lo_fits));
      const __m256 hi_short =
          _mm256_cmp_ps(dequant(_mm256_add_epi32(qhi[x], below), x), hi8[x], _CMP_LT_OQ);
      qhi[x] = _mm256_add_epi32(qhi[x], _mm256_and_si256(_mm256_castps_si256(hi_short), step));
    }
  }
  std::uint32_t short_axes = 0;
  for (int x = 0; x < 3; ++x) {
    const auto short_lanes = static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(dequant(qhi[x], x), hi8[x], _CMP_LT_OQ)));
    if ((short_lanes & valid) != 0) short_axes |= 1u << x;
    // Narrow to bytes: the packs interleave qlo and qhi per 128-bit half,
    // the permute gathers qlo0-7 into the low 8 bytes and qhi0-7 above.
    const __m256i words = _mm256_packus_epi32(qlo[x], qhi[x]);
    const __m256i bytes = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(words, words),
                                                      _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0));
    const __m128i packed = _mm256_castsi256_si128(bytes);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(qlo_out[x]), packed);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(qhi_out[x]), _mm_unpackhi_epi64(packed, packed));
  }
  return short_axes;
}
#else
std::uint32_t quantize_lanes(const AxisLanes& lanes, const float* anchor, const int* e,
                             std::uint32_t valid, std::uint8_t* const* qlo_out,
                             std::uint8_t* const* qhi_out) {
  std::uint32_t short_axes = 0;
  for (int x = 0; x < 3; ++x) {
    const float scale = quant_scale(static_cast<std::int8_t>(e[x]));
    const auto dequant = [&](std::uint32_t q) {
      return anchor[x] + static_cast<float>(q) * scale;
    };
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      std::uint32_t qlo = 0, qhi = 0;
      for (std::uint32_t bit = 128; bit != 0; bit >>= 1) {
        if (dequant(qlo | bit) <= lanes.lo[x][i]) qlo |= bit;
        if (dequant(qhi + bit - 1) < lanes.hi[x][i]) qhi += bit;
      }
      if (dequant(qhi) < lanes.hi[x][i] && ((valid >> i) & 1u) != 0) short_axes |= 1u << x;
      qlo_out[x][i] = static_cast<std::uint8_t>(qlo);
      qhi_out[x][i] = static_cast<std::uint8_t>(qhi);
    }
  }
  return short_axes;
}
#endif

/// A binary subtree root waiting to become a wide node, and its depth.
struct Pending {
  std::uint32_t bin_root;
  std::uint32_t depth;
};

/// Large trees (at least this many binary nodes) collapse in parallel: the
/// breadth-first pass from the root stops once kSubtreeRoots wide nodes
/// are pending, and each pending one's subtree is a task. Both numbers
/// depend on the tree alone, never on the thread count. A smaller tree
/// (a serve-sized tile, say) stays one serial pass.
constexpr std::size_t kSubtreeMinBinaryNodes = 32 * 1024;
constexpr std::size_t kSubtreeRoots = 256;
constexpr std::size_t kNoCut = std::numeric_limits<std::size_t>::max();

/// The SAH terms of the binary nodes one wide node's collapse covers, from
/// its exact slot bounds: each leaf slot's area (its one primitive), the
/// binary root's area (the content; a one-slot node is a leaf root) and
/// each expansion's area (the union of the slots under its mask). The
/// build and the refit sum the same terms in the same order, so an
/// identity refit reproduces the build's SAH bit for bit.
double node_sah(const CompressedWideNode& node, const Aabb* slots, const Aabb& content,
                const ExpandMasks& masks) {
  double area = 0.0;
  for (std::uint32_t i = 0; i < node.count; ++i) {
    if (node.is_leaf_slot(i)) area += static_cast<double>(slots[i].surface_area());
  }
  if (node.count > 1) area += static_cast<double>(content.surface_area());
  for (const std::uint8_t mask : masks) {
    if (mask == 0) break;
    Aabb expanded;
    for (std::uint32_t m = mask; m != 0; m &= m - 1) expanded.grow(slots[std::countr_zero(m)]);
    area += static_cast<double>(expanded.surface_area());
  }
  return area;
}

/// Where a breadth-first collapse writes: queue entry 0 becomes node
/// `root`, entry j >= 1 node `child_offset + j`, and its leaf records go
/// from `leaf_offset` on. Null arrays: count only.
struct Sink {
  CompressedWideNode* nodes = nullptr;
  ExpandMasks* masks = nullptr;
  std::uint32_t* leaves = nullptr;
  std::uint32_t root = 0;
  std::uint32_t child_offset = 0;
  std::uint32_t leaf_offset = 0;
};

/// What one collapse emitted.
struct Collapsed {
  std::size_t nodes = 0;   // queue entries made nodes
  std::size_t leaves = 0;  // leaf records
  double sah = 0.0;        // the nodes' SAH terms, summed in queue order
  std::uint32_t max_depth = 0;
};

/// Collapses `queue` breadth-first from its first entry until it drains
/// or `max_pending` entries wait. Entry i becomes node i, so a node's
/// interior children get consecutive indices after it and its leaf
/// children consecutive leaf records. Each node is quantized from the
/// exact bounds of the binary nodes behind its slots as it is emitted.
Collapsed collapse_bfs(std::span<const BvhNode> bin_nodes, std::vector<Pending>& queue,
                       std::size_t max_pending, const Sink& sink) {
  Collapsed out;
  for (; out.nodes < queue.size() && queue.size() - out.nodes < max_pending; ++out.nodes) {
    const std::size_t head = out.nodes;
    const Pending p = queue[head];
    out.max_depth = std::max(out.max_depth, p.depth);

    Frontier frontier{};
    ExpandMasks masks{};
    std::uint32_t size;
    const BvhNode& bin_root = bin_nodes[p.bin_root];
    if (bin_root.is_leaf()) {
      frontier[0] = p.bin_root;  // degenerate tree: the root itself is a leaf
      size = 1;
    } else {
      frontier[0] = bin_root.left;
      frontier[1] = bin_root.right;
      size = collapse_frontier(bin_nodes, frontier, masks);
    }

    // The child table: this node's interior children get consecutive node
    // indices from child_base and its leaf children consecutive leaf
    // indices from leaf_base, so a per-slot ordinal names each one.
    CompressedWideNode node;
    node.count = static_cast<std::uint8_t>(size);
    const auto child_base = sink.child_offset + static_cast<std::uint32_t>(queue.size());
    const auto leaf_base = sink.leaf_offset + static_cast<std::uint32_t>(out.leaves);
    std::fill(std::begin(node.meta), std::end(node.meta), std::uint8_t{0});
    std::uint8_t n_interior = 0, n_leaf = 0;
    Aabb slots[kWideBvhWidth];
    for (std::uint32_t i = 0; i < size; ++i) {
      const BvhNode& bin = bin_nodes[frontier[i]];
      slots[i] = bin.bounds;
      if (bin.is_leaf()) {
        node.meta[i] = static_cast<std::uint8_t>(CompressedWideNode::kMetaLeaf | n_leaf++);
        if (sink.leaves != nullptr) sink.leaves[leaf_base + n_leaf - 1] = bin.first;
      } else {
        node.meta[i] = n_interior++;
        queue.push_back({frontier[i], p.depth + 1});
      }
    }
    out.leaves += n_leaf;
    if (sink.nodes == nullptr) continue;
    node.child_base = n_interior > 0 ? child_base : 0;
    node.leaf_base = n_leaf > 0 ? leaf_base : 0;
    quantize_node(node, slots);
    const std::size_t at = head == 0 ? sink.root : sink.child_offset + head;
    sink.nodes[at] = node;
    sink.masks[at] = masks;
    out.sah += node_sah(node, slots, bin_root.bounds, masks);
  }
  return out;
}

}  // namespace

void quantize_node(CompressedWideNode& node, const Aabb* slots) {
  const std::uint32_t count = node.count;
  // The slot bounds, gathered per axis, and their union (the content
  // bounds) over the valid slots.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  AxisLanes lanes;
  for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
    const Aabb& b = slots[i];
    lanes.lo[0][i] = b.lo.x;
    lanes.lo[1][i] = b.lo.y;
    lanes.lo[2][i] = b.lo.z;
    lanes.hi[0][i] = b.hi.x;
    lanes.hi[1][i] = b.hi.y;
    lanes.hi[2][i] = b.hi.z;
  }
  float lo[3] = {kInf, kInf, kInf};
  float hi[3] = {-kInf, -kInf, -kInf};
  for (std::uint32_t i = 0; i < count; ++i) {
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], lanes.lo[a][i]);
      hi[a] = std::max(hi[a], lanes.hi[a][i]);
    }
  }
  node.anchor_x = lo[0];
  node.anchor_y = lo[1];
  node.anchor_z = lo[2];

  // Each axis takes the smallest exponent, from its extent's estimate up,
  // at which every valid lane fits.
  std::uint8_t* const qlo[3] = {node.qlox, node.qloy, node.qloz};
  std::uint8_t* const qhi[3] = {node.qhix, node.qhiy, node.qhiz};
  int e[3];
  for (int a = 0; a < 3; ++a) e[a] = initial_exponent(hi[a] - lo[a]);
  for (;;) {
    const std::uint32_t short_axes = quantize_lanes(lanes, lo, e, node.valid_mask(), qlo, qhi);
    if (short_axes == 0) break;
    for (int a = 0; a < 3; ++a) {
      if (((short_axes >> a) & 1u) == 0) continue;
      ++e[a];
      RTNN_CHECK(e[a] <= kExpMax, "quantization exponent retry ran past 2^127");
    }
  }
  node.exp_x = static_cast<std::int8_t>(e[0]);
  node.exp_y = static_cast<std::int8_t>(e[1]);
  node.exp_z = static_cast<std::int8_t>(e[2]);
  // Empty slots: inverted lanes. Traversal masks them off via
  // valid_mask() — with a degenerate (zero-extent) axis the decoded box
  // can collapse to a point rather than stay inverted, so the mask, not
  // the decoded bounds, is the correctness boundary.
  for (int a = 0; a < 3; ++a) {
    for (std::uint32_t i = count; i < kWideBvhWidth; ++i) {
      qlo[a][i] = 255;
      qhi[a][i] = 0;
    }
  }
}

void WideBvh::build(const Bvh& source) {
  nodes_.clear();
  leaves_.clear();
  expand_masks_.clear();
  subtree_offsets_.clear();
  prim_order_.clear();
  ordered_prim_aabbs_.clear();
  max_depth_ = 0;
  scene_bounds_ = Aabb{};
  baseline_sah_ = 0.0;
  sah_inflation_ = 1.0;
  if (source.empty()) return;

  // The leaf-ordered snapshot: primitive order and boxes.
  const std::span<const std::uint32_t> order = source.prim_order();
  const std::span<const Aabb> prim_aabbs = source.prim_aabbs();
  prim_order_.resize(order.size());
  ordered_prim_aabbs_.resize(order.size());
  parallel_for(0, static_cast<std::int64_t>(order.size()), [&](std::int64_t si) {
    const auto s = static_cast<std::size_t>(si);
    prim_order_[s] = order[s];
    ordered_prim_aabbs_[s] = prim_aabbs[order[s]];
  }, grain::kElementwise);

  // Every binary leaf, one per primitive, becomes one leaf record, and
  // every wide node but a one-leaf root has two slots or more: the arrays'
  // bounds. Their pages are first written by whichever pass emits the
  // node.
  const std::span<const BvhNode> bin_nodes = source.nodes();
  nodes_.resize(std::max<std::size_t>(1, order.size() - 1));
  expand_masks_.resize(nodes_.size());
  leaves_.resize(order.size());
  scene_bounds_ = bin_nodes[source.root()].bounds;

  // The top of the tree: breadth-first from the root, the whole tree when
  // it is small.
  std::vector<Pending> top{{source.root(), 0}};
  const Collapsed top_part =
      collapse_bfs(bin_nodes, top, bin_nodes.size() >= kSubtreeMinBinaryNodes ? kSubtreeRoots : kNoCut,
                   Sink{nodes_.data(), expand_masks_.data(), leaves_.data()});
  const std::size_t top_nodes = top_part.nodes;
  const std::size_t n_subtrees = top.size() - top_nodes;

  // Each pending entry's subtree in two parallel passes: count its nodes
  // and leaf records, then collapse it straight into its ranges — node
  // top_nodes + k for its root, subtree_offsets_[k] on for the rest.
  std::vector<Collapsed> counts(n_subtrees);
  parallel_for(0, static_cast<std::int64_t>(n_subtrees), [&](std::int64_t ki) {
    const auto k = static_cast<std::size_t>(ki);
    std::vector<Pending> queue{top[top_nodes + k]};
    counts[k] = collapse_bfs(bin_nodes, queue, kNoCut, Sink{});
  }, grain::kTask);
  subtree_offsets_.resize(n_subtrees + 1);
  std::vector<std::uint32_t> leaf_offsets(n_subtrees + 1);
  subtree_offsets_[0] = static_cast<std::uint32_t>(top.size());
  leaf_offsets[0] = static_cast<std::uint32_t>(top_part.leaves);
  for (std::size_t k = 0; k < n_subtrees; ++k) {
    subtree_offsets_[k + 1] = subtree_offsets_[k] + static_cast<std::uint32_t>(counts[k].nodes - 1);
    leaf_offsets[k + 1] = leaf_offsets[k] + static_cast<std::uint32_t>(counts[k].leaves);
  }
  std::vector<Collapsed> subtrees(n_subtrees);
  parallel_for(0, static_cast<std::int64_t>(n_subtrees), [&](std::int64_t ki) {
    const auto k = static_cast<std::size_t>(ki);
    std::vector<Pending> queue;
    queue.reserve(counts[k].nodes);
    queue.push_back(top[top_nodes + k]);
    subtrees[k] = collapse_bfs(
        bin_nodes, queue, kNoCut,
        Sink{nodes_.data(), expand_masks_.data(), leaves_.data(),
             static_cast<std::uint32_t>(top_nodes + k), subtree_offsets_[k] - 1, leaf_offsets[k]});
  }, grain::kTask);
  nodes_.resize(subtree_offsets_.back());
  expand_masks_.resize(subtree_offsets_.back());
  RTNN_CHECK(leaf_offsets.back() == leaves_.size(), "every binary leaf must become one leaf record");

  // The SAH baseline, summed as the sweep sums it: the top's nodes, then
  // each subtree's, in index order.
  double sah = top_part.sah;
  max_depth_ = top_part.max_depth;
  for (const Collapsed& part : subtrees) {
    sah += part.sah;
    max_depth_ = std::max(max_depth_, part.max_depth);
  }
  const double root_area = scene_bounds_.surface_area();
  baseline_sah_ = root_area > 0.0 ? sah / root_area : 0.0;
}

// One bottom-up pass, children before parents: each subtree in reverse
// index order, then its root, one task per subtree; then the top, in
// reverse. Per node: exact slot bounds (leaf slots from their boxes,
// interior slots from the child's content union) to quantize, and the SAH
// terms of the binary nodes its collapse covers, summed afterwards in the
// build's order.
double WideBvh::sweep() {
  struct Content {
    Aabb bounds;
    std::uint32_t first;  // first leaf slot under the node: its primitive-order key
    double sah;           // the node's SAH terms
  };
  std::vector<Content> content(nodes_.size());
  const auto visit = [&](std::size_t ni) {
    CompressedWideNode& node = nodes_[ni];
    const std::uint32_t count = node.count;
    Aabb slots[kWideBvhWidth];
    std::uint32_t first[kWideBvhWidth] = {};
    for (std::uint32_t i = 0; i < count; ++i) {
      if (node.is_leaf_slot(i)) {
        const std::uint32_t s = leaves_[node.leaf_index(i)];
        slots[i] = ordered_prim_aabbs_[s];
        first[i] = s;
      } else {
        const Content& child = content[node.child_index(i)];
        slots[i] = child.bounds;
        first[i] = child.first;
      }
    }
    // Unite the slots in primitive order, as the binary tree unites left
    // then right: a -0.0/+0.0 tie then keeps the binary refit's bits.
    std::uint32_t order[kWideBvhWidth] = {};
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t j = i;
      for (; j > 0 && first[order[j - 1]] > first[i]; --j) order[j] = order[j - 1];
      order[j] = i;
    }
    Aabb all;
    for (std::uint32_t k = 0; k < count; ++k) all.grow(slots[order[k]]);
    quantize_node(node, slots);
    content[ni] = {all, first[order[0]], node_sah(node, slots, all, expand_masks_[ni])};
  };

  const std::size_t n_subtrees = subtree_offsets_.size() - 1;
  const std::size_t top_nodes = subtree_offsets_.front() - n_subtrees;
  std::vector<double> subtree_sah(n_subtrees);
  parallel_for(0, static_cast<std::int64_t>(n_subtrees), [&](std::int64_t ki) {
    const auto k = static_cast<std::size_t>(ki);
    for (std::size_t ni = subtree_offsets_[k + 1]; ni-- > subtree_offsets_[k];) visit(ni);
    visit(top_nodes + k);
    double sum = 0.0;
    sum += content[top_nodes + k].sah;
    for (std::size_t ni = subtree_offsets_[k]; ni < subtree_offsets_[k + 1]; ++ni) {
      sum += content[ni].sah;
    }
    subtree_sah[k] = sum;
  }, grain::kTask);
  for (std::size_t ni = top_nodes; ni-- > 0;) visit(ni);
  double total = 0.0;
  for (std::size_t ni = 0; ni < top_nodes; ++ni) total += content[ni].sah;
  for (const double sum : subtree_sah) total += sum;
  scene_bounds_ = content[0].bounds;
  const double root_area = content[0].bounds.surface_area();
  return root_area > 0.0 ? total / root_area : 0.0;
}

template <typename PrimBox>
void WideBvh::refit_impl(std::size_t prim_count, PrimBox prim_box) {
  RTNN_CHECK(prim_count == prim_order_.size(),
             "refit requires the same primitive count as the build");
  if (nodes_.empty()) return;
  const std::uint64_t empties = parallel_reduce<std::uint64_t>(
      0, static_cast<std::int64_t>(prim_order_.size()), 0,
      [&](std::int64_t si) -> std::uint64_t {
        const auto s = static_cast<std::size_t>(si);
        const Aabb box = prim_box(prim_order_[s]);
        ordered_prim_aabbs_[s] = box;
        return box.empty() ? 1 : 0;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; }, grain::kElementwise);
  RTNN_CHECK(empties == 0, "cannot refit over an empty AABB");

  const double sah = sweep();
  sah_inflation_ = (baseline_sah_ > 0.0 && sah > 0.0) ? sah / baseline_sah_ : 1.0;
}

void WideBvh::refit(std::span<const Aabb> prims) {
  refit_impl(prims.size(), [&](std::uint32_t prim) { return prims[prim]; });
}

void WideBvh::refit(std::span<const Vec3> centers, float width) {
  RTNN_CHECK(width > 0.0f, "refit AABB width must be positive");
  refit_impl(centers.size(),
             [&](std::uint32_t prim) { return Aabb::cube(centers[prim], width); });
}

WideBvhStats WideBvh::stats() const {
  WideBvhStats s;
  s.node_count = static_cast<std::uint32_t>(nodes_.size());
  s.leaf_count = static_cast<std::uint32_t>(leaves_.size());
  s.max_depth = max_depth_;
  s.node_bytes = static_cast<std::uint64_t>(nodes_.size()) * sizeof(CompressedWideNode);
  s.total_index_bytes =
      s.node_bytes + static_cast<std::uint64_t>(leaves_.size()) * sizeof(std::uint32_t) +
      static_cast<std::uint64_t>(prim_order_.size()) * sizeof(std::uint32_t) +
      static_cast<std::uint64_t>(ordered_prim_aabbs_.size()) * sizeof(Aabb) +
      static_cast<std::uint64_t>(expand_masks_.size()) * sizeof(ExpandMasks) +
      static_cast<std::uint64_t>(subtree_offsets_.size()) * sizeof(std::uint32_t);
  if (nodes_.empty()) return s;
  std::uint64_t children = 0;
  for (const CompressedWideNode& n : nodes_) children += n.count;
  s.avg_children = static_cast<double>(children) / static_cast<double>(nodes_.size());
  return s;
}

void WideBvh::validate() const {
  if (nodes_.empty()) {
    RTNN_CHECK(prim_order_.empty(), "empty wide tree but primitives present");
    RTNN_CHECK(leaves_.empty(), "empty wide tree but leaves present");
    return;
  }
  const auto n_prims = static_cast<std::uint32_t>(prim_order_.size());
  RTNN_CHECK(ordered_prim_aabbs_.size() == n_prims, "leaf-ordered AABBs out of sync");
  RTNN_CHECK(expand_masks_.size() == nodes_.size() && !subtree_offsets_.empty() &&
                 subtree_offsets_.back() == nodes_.size() &&
                 subtree_offsets_.front() >= subtree_offsets_.size(),
             "collapse records out of sync");
  // part[n]: the subtree node n belongs to, or n_subtrees for the top.
  const std::size_t n_subtrees = subtree_offsets_.size() - 1;
  const std::size_t top_nodes = subtree_offsets_.front() - n_subtrees;
  std::vector<std::uint32_t> part(nodes_.size(), static_cast<std::uint32_t>(n_subtrees));
  for (std::size_t k = 0; k < n_subtrees; ++k) {
    RTNN_CHECK(subtree_offsets_[k] <= subtree_offsets_[k + 1], "subtree table not sorted");
    part[top_nodes + k] = static_cast<std::uint32_t>(k);
    std::fill(part.begin() + subtree_offsets_[k], part.begin() + subtree_offsets_[k + 1],
              static_cast<std::uint32_t>(k));
  }

  // Structure: packing, reachability, and the consecutive-children
  // metadata. The collapse allocates every child after its parent, so
  // child indices strictly increase — which also rules out cycles and lets
  // the bounds pass below run bottom-up in reverse index order.
  std::vector<std::uint32_t> slot_seen(n_prims, 0);
  std::vector<std::uint8_t> node_seen(nodes_.size(), 0);
  std::vector<std::uint8_t> leaf_seen(leaves_.size(), 0);
  std::vector<std::uint32_t> stack{root()};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    RTNN_CHECK(!node_seen[ni], "wide node reachable twice");
    node_seen[ni] = 1;
    const CompressedWideNode& node = nodes_[ni];
    RTNN_CHECK(node.count >= 1 && node.count <= kWideBvhWidth,
               "wide node child count out of range");
    // One mask per slot beyond the first two, each a multi-slot subset.
    for (std::uint32_t j = 0; j < expand_masks_[ni].size(); ++j) {
      const std::uint8_t mask = expand_masks_[ni][j];
      RTNN_CHECK((mask != 0) == (j + 2 < node.count) && (mask & ~node.valid_mask()) == 0 &&
                     std::popcount(mask) != 1,
                 "expand masks do not match the node's slots");
    }
    std::uint32_t n_interior = 0, n_leaf = 0;
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      if (i >= node.count) {
        RTNN_CHECK(node.meta[i] == 0, "unused slot carries a child reference");
        RTNN_CHECK(node.qlox[i] == 255 && node.qhix[i] == 0,
                   "unused slot lanes not inverted");
        continue;
      }
      const std::uint32_t ordinal = node.meta[i] & CompressedWideNode::kMetaOrdinal;
      RTNN_CHECK((node.meta[i] & ~(CompressedWideNode::kMetaLeaf |
                                   CompressedWideNode::kMetaOrdinal)) == 0,
                 "slot metadata has stray bits");
      if (node.is_leaf_slot(i)) {
        RTNN_CHECK(ordinal == n_leaf++, "leaf children not consecutive");
        const std::uint32_t li = node.leaf_index(i);
        RTNN_CHECK(li < leaves_.size(), "leaf index out of range");
        RTNN_CHECK(!leaf_seen[li], "leaf referenced twice");
        leaf_seen[li] = 1;
        const std::uint32_t s = leaves_[li];
        RTNN_CHECK(s < n_prims, "leaf record slot out of bounds");
        RTNN_CHECK(prim_order_[s] < n_prims, "primitive id out of range");
        ++slot_seen[prim_order_[s]];
      } else {
        RTNN_CHECK(ordinal == n_interior++, "interior children not consecutive");
        const std::uint32_t child = node.child_index(i);
        RTNN_CHECK(child > ni && child < nodes_.size(), "interior child index out of range");
        // A top node's children are top nodes or subtree roots; a subtree
        // node's stay in its range.
        RTNN_CHECK(part[ni] == n_subtrees ? child < subtree_offsets_.front()
                                          : part[child] == part[ni] && child >= top_nodes + n_subtrees,
                   "child outside its parent's subtree");
        stack.push_back(child);
      }
    }
  }
  for (std::uint32_t p = 0; p < n_prims; ++p) {
    RTNN_CHECK(slot_seen[p] == 1, "primitive not in exactly one wide leaf");
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    RTNN_CHECK(node_seen[n], "unreachable wide node");
  }
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    RTNN_CHECK(leaf_seen[l], "unreachable leaf record");
  }

  // Conservativeness, the property traversal exactness rests on: every
  // dequantized slot box contains the exact bounds of everything under
  // the slot, computed bottom-up as min/max unions of the leaf-ordered
  // primitive boxes.
  std::vector<Aabb> subtree(nodes_.size());
  for (std::size_t ni = nodes_.size(); ni-- > 0;) {
    const CompressedWideNode& node = nodes_[ni];
    for (std::uint32_t i = 0; i < node.count; ++i) {
      const Aabb& exact = node.is_leaf_slot(i) ? ordered_prim_aabbs_[leaves_[node.leaf_index(i)]]
                                               : subtree[node.child_index(i)];
      RTNN_CHECK(dequantize_slot(node, i).contains(exact),
                 "dequantized slot box does not contain its exact bounds");
      subtree[ni].grow(exact);
    }
  }
}

}  // namespace rtnn::rt
