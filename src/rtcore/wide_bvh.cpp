// Collapse, quantization and refit of the compressed wide BVH.
//
// Each CompressedWideNode encodes its eight child AABBs as 8-bit offsets
// from a per-node anchor at per-axis power-of-two scales, quantized from
// the exact bounds of the subtree behind each slot: min/max unions of the
// leaf boxes, re-united bottom-up at build and at every refit.
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
#include <bit>
#include <cmath>
#include <limits>

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

/// Quantizes `node`'s valid slots from their exact bounds `slots[0,
/// count)`: anchor, per-axis exponents and lanes. The child table (count,
/// bases, meta) is the collapse's and stays untouched.
void quantize_node(CompressedWideNode& node, const Aabb* slots) {
  const std::uint32_t count = node.count;
  // The slot bounds, gathered per axis, and their union (the content
  // bounds) over the valid slots.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float slot_lo[3][kWideBvhWidth], slot_hi[3][kWideBvhWidth];
  float lo[3] = {kInf, kInf, kInf};
  float hi[3] = {-kInf, -kInf, -kInf};
  for (std::uint32_t i = 0; i < count; ++i) {
    const Aabb& b = slots[i];
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

/// Wide nodes below which the sweep runs serially (reverse index order)
/// rather than level by level in parallel.
constexpr std::size_t kParallelSweepNodes = 2 * 1024;

}  // namespace

void WideBvh::build(const Bvh& source) {
  nodes_.clear();
  leaves_.clear();
  expand_masks_.clear();
  level_offsets_.clear();
  prim_order_.assign(source.prim_order().begin(), source.prim_order().end());
  ordered_prim_aabbs_.clear();
  scene_bounds_ = Aabb{};
  baseline_sah_ = 0.0;
  sah_inflation_ = 1.0;
  if (source.empty()) return;

  const std::span<const BvhNode> bin_nodes = source.nodes();

  // Topology (serial): BFS over wide nodes keeps parents adjacent to
  // children in memory and each depth a contiguous index range (the level
  // table). Each queue entry is a wide node to fill; its frontier collapse
  // allocates the children, so queue index == node index.
  struct Pending {
    std::uint32_t bin_root;
    std::uint32_t depth;
  };
  // Capacity up front. For leaf_size 1 the collapse lands near one wide
  // node per 2.5 binary leaves; a quarter of the binary node count covers
  // that with slack.
  const std::size_t node_estimate = bin_nodes.size() / 4 + 2;
  std::vector<Pending> queue;
  queue.reserve(node_estimate);
  queue.push_back({source.root(), 0});
  nodes_.reserve(node_estimate);
  expand_masks_.reserve(node_estimate);
  leaves_.reserve((bin_nodes.size() + 1) / 2);
  nodes_.emplace_back();
  expand_masks_.emplace_back();

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Pending p = queue[head];
    if (level_offsets_.size() == p.depth) {
      level_offsets_.push_back(static_cast<std::uint32_t>(head));
    }

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
    // Allocate them before touching nodes_[head]: emplace_back below may
    // reallocate the node array.
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
        queue.push_back({frontier[i], p.depth + 1});
        nodes_.emplace_back();
        expand_masks_.emplace_back();
      }
    }

    CompressedWideNode& node = nodes_[head];
    node.count = static_cast<std::uint8_t>(size);
    node.child_base = n_interior > 0 ? child_base : 0;
    node.leaf_base = n_leaf > 0 ? leaf_base : 0;
    std::copy(meta, meta + kWideBvhWidth, node.meta);
    expand_masks_[head] = masks;
  }
  level_offsets_.push_back(static_cast<std::uint32_t>(nodes_.size()));

  // Bounds: the leaf-ordered boxes, then the sweep — the exact unions it
  // quantizes from are the bits of the binary nodes behind the slots, and
  // its SAH cost is the inflation baseline.
  const std::span<const Aabb> prim_aabbs = source.prim_aabbs();
  ordered_prim_aabbs_.resize(prim_order_.size());
  parallel_for(0, static_cast<std::int64_t>(prim_order_.size()), [&](std::int64_t si) {
    const auto s = static_cast<std::size_t>(si);
    ordered_prim_aabbs_[s] = prim_aabbs[prim_order_[s]];
  }, grain::kElementwise);
  baseline_sah_ = sweep();
}

// One bottom-up pass, children before parents (level by level in
// parallel on large trees). Per node: exact slot bounds (leaf slots from
// their boxes, interior slots from the child's content union) to
// quantize, and the SAH terms of the binary nodes its collapse covers —
// its binary root (the content), the expansions (unions under their
// masks) and its binary leaves (area × primitive count).
double WideBvh::sweep() {
  struct Content {
    Aabb bounds;
    std::uint32_t first;  // first leaf slot under the node: its primitive-order key
  };
  std::vector<Content> content(nodes_.size());
  const auto visit = [&](std::size_t ni) {
    CompressedWideNode& node = nodes_[ni];
    const std::uint32_t count = node.count;
    Aabb slots[kWideBvhWidth];
    std::uint32_t first[kWideBvhWidth] = {};
    double area = 0.0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (node.is_leaf_slot(i)) {
        const WideLeaf& leaf = leaves_[node.leaf_index(i)];
        Aabb bounds;
        for (std::uint32_t s = leaf.first; s < leaf.first + leaf.count; ++s) {
          bounds.grow(ordered_prim_aabbs_[s]);
        }
        slots[i] = bounds;
        first[i] = leaf.first;
        area += static_cast<double>(bounds.surface_area()) * leaf.count;
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
    content[ni] = {all, first[order[0]]};
    if (count > 1) area += static_cast<double>(all.surface_area());  // interior binary root
    for (const std::uint8_t mask : expand_masks_[ni]) {
      if (mask == 0) break;
      Aabb expanded;
      for (std::uint32_t m = mask; m != 0; m &= m - 1) {
        expanded.grow(slots[std::countr_zero(m)]);
      }
      area += static_cast<double>(expanded.surface_area());
    }
    quantize_node(node, slots);
    return area;
  };

  double total = 0.0;
  if (num_threads() <= 1 || nodes_.size() < kParallelSweepNodes) {
    for (std::size_t ni = nodes_.size(); ni-- > 0;) total += visit(ni);
  } else {
    for (std::size_t level = level_offsets_.size() - 1; level-- > 0;) {
      total += parallel_reduce<double>(
          level_offsets_[level], level_offsets_[level + 1], 0.0,
          [&](std::int64_t ni) { return visit(static_cast<std::size_t>(ni)); },
          [](double a, double b) { return a + b; }, grain::kElementwise / kWideBvhWidth);
    }
  }
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
  s.max_depth = level_offsets_.empty() ? 0 : static_cast<std::uint32_t>(level_offsets_.size() - 2);
  s.node_bytes = static_cast<std::uint64_t>(nodes_.size()) * sizeof(CompressedWideNode);
  s.total_index_bytes =
      s.node_bytes + static_cast<std::uint64_t>(leaves_.size()) * sizeof(WideLeaf) +
      static_cast<std::uint64_t>(prim_order_.size()) * sizeof(std::uint32_t) +
      static_cast<std::uint64_t>(ordered_prim_aabbs_.size()) * sizeof(Aabb) +
      static_cast<std::uint64_t>(expand_masks_.size()) * sizeof(ExpandMasks) +
      static_cast<std::uint64_t>(level_offsets_.size()) * sizeof(std::uint32_t);
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
  RTNN_CHECK(expand_masks_.size() == nodes_.size() && level_offsets_.size() >= 2 &&
                 level_offsets_.front() == 0 && level_offsets_.back() == nodes_.size(),
             "collapse records out of sync");
  std::vector<std::uint32_t> level(nodes_.size());
  for (std::uint32_t l = 0; l + 1 < level_offsets_.size(); ++l) {
    RTNN_CHECK(level_offsets_[l] < level_offsets_[l + 1], "empty BFS level");
    std::fill(level.begin() + level_offsets_[l], level.begin() + level_offsets_[l + 1], l);
  }

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
        RTNN_CHECK(level[child] == level[ni] + 1, "child not one BFS level below its parent");
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
