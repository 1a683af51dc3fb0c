// Collapse and quantization of the compressed wide BVH.
//
// Each CompressedWideNode encodes its eight child AABBs as 8-bit offsets
// from a per-node anchor at per-axis power-of-two scales, quantized
// straight from the bounds of the binary frontier nodes behind its slots.
// The encoding is *conservative by construction*: after the arithmetic
// estimate of each quantized lane, a fix-up loop nudges it until the
// exactly-dequantized value (the same `anchor + float(q) * 2^exp`
// expression both traversal decoders evaluate) brackets the exact bound
// from the correct side. Traversal against dequantized boxes can therefore
// only visit a superset of the nodes an exact-bounds walk visits — never
// miss — and the exact primitive-AABB re-test at the leaves keeps
// candidate sets identical.
//
// Scale selection starts from frexp of the node's content extent and
// retries with a doubled scale in the rare case float rounding leaves the
// top of the range unreachable at q = 255 (e.g. a tiny extent against a
// huge anchor magnitude). At the exponent ceiling 255 * 2^127 overflows to
// +inf, which trivially bounds any finite box, so the retry always
// terminates.
#include "rtcore/wide_bvh.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace rtnn::rt {

namespace {

/// The binary nodes feeding one wide node's slots, recorded during the
/// serial topology pass and consumed by every quantization pass.
using SlotSources = std::array<std::uint32_t, kWideBvhWidth>;

/// Grows `frontier` (binary node ids under one wide node) by repeatedly
/// replacing the interior entry with the largest surface area — the child a
/// random ray is most likely to enter — with its two children, until all
/// eight slots are used or only leaves remain. Returns the frontier size.
/// Areas are computed once per entry (-1 marks a leaf), not rescanned.
std::uint32_t collapse_frontier(std::span<const BvhNode> bin_nodes, SlotSources& frontier,
                                std::uint32_t size) {
  const auto entry_area = [&](std::uint32_t id) {
    const BvhNode& node = bin_nodes[id];
    return node.is_leaf() ? -1.0f : node.bounds.surface_area();
  };
  float area[kWideBvhWidth];
  for (std::uint32_t i = 0; i < size; ++i) area[i] = entry_area(frontier[i]);
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
    const BvhNode& node = bin_nodes[frontier[expand]];
    frontier[expand] = node.left;
    area[expand] = entry_area(node.left);
    frontier[size] = node.right;
    area[size] = entry_area(node.right);
    ++size;
  }
  return size;
}

constexpr int kExpMin = -126;  // quant_scale()'s normal-float range
constexpr int kExpMax = 127;

/// Smallest starting exponent such that 255 * 2^e plausibly covers
/// `extent`; the caller's retry loop handles the rounding corner cases.
int initial_exponent(float extent) {
  if (!(extent > 0.0f)) return kExpMin;
  int ex = 0;
  std::frexp(extent, &ex);  // extent = m * 2^ex, m in [0.5, 1)
  return std::clamp(ex - 8, kExpMin, kExpMax);
}

/// Quantizes one axis of one slot box. Returns false when the hi bound is
/// unreachable even at q = 255 and the node must retry with a larger
/// scale. `lo`/`hi` are the exact slot bounds; `anchor` is exact (a copy of
/// the node's content minimum on this axis), so q = 0 always encodes a
/// valid conservative lo.
bool quantize_axis(float lo, float hi, float anchor, float scale,
                   std::uint8_t& qlo_out, std::uint8_t& qhi_out) {
  const auto dequant = [&](std::uint32_t q) {
    return anchor + static_cast<float>(q) * scale;
  };

  // lo: round down. The division estimate is within an ulp or two; the
  // fix-up loops land on the largest q whose dequantized value is <= lo.
  // q = 0 decodes to the anchor, which is the exact content minimum, so a
  // conservative lo always exists.
  float est = std::min((lo - anchor) / scale, 255.0f);
  std::uint32_t qlo = est > 0.0f ? static_cast<std::uint32_t>(est) : 0u;
  while (qlo > 0 && dequant(qlo) > lo) --qlo;
  while (qlo < 255 && dequant(qlo + 1) <= lo) ++qlo;

  // hi: round up — smallest q whose dequantized value is >= hi.
  est = std::min((hi - anchor) / scale, 255.0f);
  std::uint32_t qhi = est > 0.0f ? static_cast<std::uint32_t>(est) : 0u;
  while (qhi < 255 && dequant(qhi) < hi) ++qhi;
  while (qhi > 0 && dequant(qhi - 1) >= hi) --qhi;
  if (dequant(qhi) < hi) return false;  // q=255 still short: retry with 2x scale

  qlo_out = static_cast<std::uint8_t>(qlo);
  qhi_out = static_cast<std::uint8_t>(qhi);
  return true;
}

/// Quantizes `node`'s valid slots from the bounds of the binary frontier
/// nodes behind them: anchor, per-axis exponents and lanes. The child
/// table (count, bases, meta) is the collapse's and stays untouched.
void quantize_node(CompressedWideNode& node, std::span<const BvhNode> bin_nodes,
                   const SlotSources& sources) {
  const std::uint32_t count = node.count;
  // The slot bounds, gathered per axis, and their union (the content
  // bounds) over the valid slots.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float slot_lo[3][kWideBvhWidth], slot_hi[3][kWideBvhWidth];
  float lo[3] = {kInf, kInf, kInf};
  float hi[3] = {-kInf, -kInf, -kInf};
  for (std::uint32_t i = 0; i < count; ++i) {
    const Aabb& b = bin_nodes[sources[i]].bounds;
    slot_lo[0][i] = b.lo.x;
    slot_lo[1][i] = b.lo.y;
    slot_lo[2][i] = b.lo.z;
    slot_hi[0][i] = b.hi.x;
    slot_hi[1][i] = b.hi.y;
    slot_hi[2][i] = b.hi.z;
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], slot_lo[a][i]);
      hi[a] = std::max(hi[a], slot_hi[a][i]);
    }
  }
  node.anchor_x = lo[0];
  node.anchor_y = lo[1];
  node.anchor_z = lo[2];

  std::uint8_t* qlo[3] = {node.qlox, node.qloy, node.qloz};
  std::uint8_t* qhi[3] = {node.qhix, node.qhiy, node.qhiz};
  std::int8_t* exps[3] = {&node.exp_x, &node.exp_y, &node.exp_z};

  for (int a = 0; a < 3; ++a) {
    int e = initial_exponent(hi[a] - lo[a]);
    for (;; ++e) {
      RTNN_CHECK(e <= kExpMax, "quantization exponent retry ran past 2^127");
      const float scale = quant_scale(static_cast<std::int8_t>(e));
      bool ok = true;
      for (std::uint32_t i = 0; i < count && ok; ++i) {
        ok = quantize_axis(slot_lo[a][i], slot_hi[a][i], lo[a], scale, qlo[a][i], qhi[a][i]);
      }
      if (ok) {
        *exps[a] = static_cast<std::int8_t>(e);
        break;
      }
    }
    // Empty slots: inverted lanes. Traversal masks them off via
    // valid_mask() — with a degenerate (zero-extent) axis the decoded box
    // can collapse to a point rather than stay inverted, so the mask, not
    // the decoded bounds, is the correctness boundary.
    for (std::uint32_t i = count; i < kWideBvhWidth; ++i) {
      qlo[a][i] = 255;
      qhi[a][i] = 0;
    }
  }
}

/// quantize_node over every node, in parallel.
void quantize_nodes(std::span<CompressedWideNode> nodes, std::span<const BvhNode> bin_nodes,
                    std::span<const SlotSources> sources) {
  parallel_for(0, static_cast<std::int64_t>(nodes.size()), [&](std::int64_t ni) {
    const auto i = static_cast<std::size_t>(ni);
    quantize_node(nodes[i], bin_nodes, sources[i]);
  }, grain::kElementwise / kWideBvhWidth);
}

}  // namespace

void WideBvh::build(const Bvh& source) {
  nodes_.clear();
  leaves_.clear();
  slot_sources_.clear();
  ordered_prim_aabbs_.clear();
  max_depth_ = 0;
  prim_order_.assign(source.prim_order().begin(), source.prim_order().end());
  source_node_count_ = static_cast<std::uint32_t>(source.nodes().size());
  if (source.empty()) return;

  const std::span<const BvhNode> bin_nodes = source.nodes();

  // Phase 1 (serial): topology. BFS over wide nodes keeps parents adjacent
  // to children in memory. Each queue entry is a wide node to fill; its
  // frontier collapse allocates the children. Single-threaded builds
  // quantize inline while the binary nodes are cache-hot; parallel builds
  // defer the quantization (the bulk of the work) to phase 2.
  const bool inline_quantize = num_threads() <= 1;
  struct Pending {
    std::uint32_t bin_root;
    std::uint32_t wide_index;
    std::uint32_t depth;
  };
  // Capacity up front. For leaf_size 1 the collapse lands near one wide
  // node per 2.5 binary leaves; a quarter of the binary node count covers
  // that with slack.
  const std::size_t node_estimate = bin_nodes.size() / 4 + 2;
  std::vector<Pending> queue;
  queue.reserve(node_estimate);
  queue.push_back({source.root(), 0, 0});
  // Slot sources are recorded for every node: the parallel quantization
  // consumes them now, refit_from() consumes them for the tree's lifetime.
  slot_sources_.reserve(node_estimate);
  nodes_.reserve(node_estimate);
  leaves_.reserve((bin_nodes.size() + 1) / 2);
  nodes_.emplace_back();
  slot_sources_.emplace_back();

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Pending p = queue[head];
    max_depth_ = std::max(max_depth_, p.depth);

    SlotSources frontier{};
    std::uint32_t size;
    const BvhNode& bin_root = bin_nodes[p.bin_root];
    if (bin_root.is_leaf()) {
      frontier[0] = p.bin_root;  // degenerate tree: the root itself is a leaf
      size = 1;
    } else {
      frontier[0] = bin_root.left;
      frontier[1] = bin_root.right;
      size = collapse_frontier(bin_nodes, frontier, 2);
    }

    // The child table: this node's interior children get consecutive node
    // indices from child_base and its leaf children consecutive leaf
    // indices from leaf_base, so a per-slot ordinal names each one.
    // Allocate them before touching nodes_[p.wide_index]: emplace_back
    // below may reallocate the node array.
    const auto child_base = static_cast<std::uint32_t>(nodes_.size());
    const auto leaf_base = static_cast<std::uint32_t>(leaves_.size());
    std::uint8_t meta[kWideBvhWidth] = {};
    std::uint8_t n_interior = 0, n_leaf = 0;
    for (std::uint32_t i = 0; i < size; ++i) {
      const BvhNode& bin = bin_nodes[frontier[i]];
      if (bin.is_leaf()) {
        meta[i] = static_cast<std::uint8_t>(CompressedWideNode::kMetaLeaf | n_leaf++);
        leaves_.push_back({bin.first, bin.count});
      } else {
        meta[i] = n_interior++;
        queue.push_back({frontier[i], child_base + meta[i], p.depth + 1});
        nodes_.emplace_back();
        slot_sources_.emplace_back();
      }
    }

    CompressedWideNode& node = nodes_[p.wide_index];
    node.count = static_cast<std::uint8_t>(size);
    node.child_base = n_interior > 0 ? child_base : 0;
    node.leaf_base = n_leaf > 0 ? leaf_base : 0;
    std::copy(meta, meta + kWideBvhWidth, node.meta);
    slot_sources_[p.wide_index] = frontier;
    if (inline_quantize) quantize_node(node, bin_nodes, frontier);
  }
  // Phase 2 (parallel): quantize every node's slots.
  if (!inline_quantize) quantize_nodes(nodes_, bin_nodes, slot_sources_);
  refresh_ordered_prims(source.prim_aabbs());
}

void WideBvh::refit_from(const Bvh& source) {
  RTNN_CHECK(static_cast<std::uint32_t>(source.nodes().size()) == source_node_count_ &&
                 source.prim_count() == prim_count(),
             "refit_from requires the Bvh this WideBvh was collapsed from");
  if (nodes_.empty()) return;
  RTNN_DCHECK(std::equal(prim_order_.begin(), prim_order_.end(),
                         source.prim_order().begin()),
              "source primitive order diverged from the collapse");

  // Only boxes change: re-quantize every node from the recorded collapse
  // frontier and refresh the leaf-ordered primitive boxes. No topology
  // decisions, no allocation — a flat parallel pass.
  quantize_nodes(nodes_, source.nodes(), slot_sources_);
  refresh_ordered_prims(source.prim_aabbs());
}

void WideBvh::refresh_ordered_prims(std::span<const Aabb> prim_aabbs) {
  ordered_prim_aabbs_.resize(prim_order_.size());
  parallel_for(0, static_cast<std::int64_t>(prim_order_.size()), [&](std::int64_t si) {
    const auto s = static_cast<std::size_t>(si);
    ordered_prim_aabbs_[s] = prim_aabbs[prim_order_[s]];
  }, grain::kElementwise);
}

WideBvhStats WideBvh::stats() const {
  WideBvhStats s;
  s.node_count = static_cast<std::uint32_t>(nodes_.size());
  s.leaf_count = static_cast<std::uint32_t>(leaves_.size());
  s.max_depth = max_depth_;
  s.node_bytes = static_cast<std::uint64_t>(nodes_.size()) * sizeof(CompressedWideNode);
  s.total_index_bytes =
      s.node_bytes + static_cast<std::uint64_t>(leaves_.size()) * sizeof(WideLeaf) +
      static_cast<std::uint64_t>(prim_order_.size()) * sizeof(std::uint32_t) +
      static_cast<std::uint64_t>(ordered_prim_aabbs_.size()) * sizeof(Aabb);
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

  // Structure: packing, reachability, and the consecutive-children
  // metadata. BFS allocates every child after its parent, so child
  // indices strictly increase — which also rules out cycles and lets the
  // bounds pass below run bottom-up in reverse index order.
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
        const WideLeaf& leaf = leaves_[li];
        RTNN_CHECK(leaf.count >= 1, "empty leaf range");
        RTNN_CHECK(leaf.first + leaf.count <= n_prims, "leaf slot range out of bounds");
        for (std::uint32_t s = leaf.first; s < leaf.first + leaf.count; ++s) {
          RTNN_CHECK(prim_order_[s] < n_prims, "primitive id out of range");
          ++slot_seen[prim_order_[s]];
        }
      } else {
        RTNN_CHECK(ordinal == n_interior++, "interior children not consecutive");
        const std::uint32_t child = node.child_index(i);
        RTNN_CHECK(child > ni && child < nodes_.size(), "interior child index out of range");
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
      Aabb exact;
      if (node.is_leaf_slot(i)) {
        const WideLeaf& leaf = leaves_[node.leaf_index(i)];
        for (std::uint32_t s = leaf.first; s < leaf.first + leaf.count; ++s) {
          exact.grow(ordered_prim_aabbs_[s]);
        }
      } else {
        exact = subtree[node.child_index(i)];
      }
      RTNN_CHECK(dequantize_slot(node, i).contains(exact),
                 "dequantized slot box does not contain its exact bounds");
      subtree[ni].grow(exact);
    }
  }
}

}  // namespace rtnn::rt
