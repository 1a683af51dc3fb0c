// Test-local oracle of the compressed wide BVH's bytes: the serial
// breadth-first collapse with a scalar quantizer, written without the
// parallel build's subtree cut or the 8-lane search. The
// production tree must match it node for node in DFS order (its node
// indices differ: subtrees own contiguous ranges).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "rtcore/bvh.hpp"
#include "rtcore/wide_bvh.hpp"

namespace rtnn::testing::oracle {

constexpr int kExpMin = -126;
constexpr int kExpMax = 127;

inline int initial_exponent(float extent) {
  if (!(extent > 0.0f)) return kExpMin;
  int ex = 0;
  std::frexp(extent, &ex);  // extent = m * 2^ex, m in [0.5, 1)
  return std::clamp(ex - 8, kExpMin, kExpMax);
}

/// One lane: the arithmetic estimate, then fix-up walks to the largest q
/// with dequant(q) <= lo and the smallest q with dequant(q) >= hi. False
/// when q = 255 still falls short of hi.
inline bool quantize_axis(float lo, float hi, float anchor, float scale, std::uint8_t& qlo_out,
                          std::uint8_t& qhi_out) {
  const auto dequant = [&](std::uint32_t q) { return anchor + static_cast<float>(q) * scale; };
  float est = std::min((lo - anchor) / scale, 255.0f);
  std::uint32_t qlo = est > 0.0f ? static_cast<std::uint32_t>(est) : 0u;
  while (qlo > 0 && dequant(qlo) > lo) --qlo;
  while (qlo < 255 && dequant(qlo + 1) <= lo) ++qlo;
  est = std::min((hi - anchor) / scale, 255.0f);
  std::uint32_t qhi = est > 0.0f ? static_cast<std::uint32_t>(est) : 0u;
  while (qhi < 255 && dequant(qhi) < hi) ++qhi;
  while (qhi > 0 && dequant(qhi - 1) >= hi) --qhi;
  if (dequant(qhi) < hi) return false;
  qlo_out = static_cast<std::uint8_t>(qlo);
  qhi_out = static_cast<std::uint8_t>(qhi);
  return true;
}

/// Anchor, exponents and lanes of `node` from slots [0, node.count);
/// unused lanes inverted.
inline void quantize_node(rt::CompressedWideNode& node, const Aabb* slots) {
  const std::uint32_t count = node.count;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float lo[3] = {kInf, kInf, kInf};
  float hi[3] = {-kInf, -kInf, -kInf};
  for (std::uint32_t i = 0; i < count; ++i) {
    const float slo[3] = {slots[i].lo.x, slots[i].lo.y, slots[i].lo.z};
    const float shi[3] = {slots[i].hi.x, slots[i].hi.y, slots[i].hi.z};
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], slo[a]);
      hi[a] = std::max(hi[a], shi[a]);
    }
  }
  node.anchor_x = lo[0];
  node.anchor_y = lo[1];
  node.anchor_z = lo[2];
  std::uint8_t* qlo[3] = {node.qlox, node.qloy, node.qloz};
  std::uint8_t* qhi[3] = {node.qhix, node.qhiy, node.qhiz};
  std::int8_t* exps[3] = {&node.exp_x, &node.exp_y, &node.exp_z};
  for (int a = 0; a < 3; ++a) {
    for (int e = initial_exponent(hi[a] - lo[a]);; ++e) {
      const float scale = rt::quant_scale(static_cast<std::int8_t>(e));
      bool ok = true;
      for (std::uint32_t i = 0; i < count && ok; ++i) {
        const float slo[3] = {slots[i].lo.x, slots[i].lo.y, slots[i].lo.z};
        const float shi[3] = {slots[i].hi.x, slots[i].hi.y, slots[i].hi.z};
        ok = quantize_axis(slo[a], shi[a], lo[a], scale, qlo[a][i], qhi[a][i]);
      }
      if (ok) {
        *exps[a] = static_cast<std::int8_t>(e);
        break;
      }
    }
    for (std::uint32_t i = count; i < rt::kWideBvhWidth; ++i) {
      qlo[a][i] = 255;
      qhi[a][i] = 0;
    }
  }
}

/// The oracle tree, in breadth-first layout.
struct Tree {
  std::vector<rt::CompressedWideNode> nodes;
  std::vector<std::uint32_t> leaves;  // one prim_order() slot per leaf
  std::vector<rt::ExpandMasks> masks;
  std::uint32_t max_depth = 0;
};

/// The greedy largest-area frontier collapse of one binary subtree root.
inline std::uint32_t collapse_frontier(std::span<const rt::BvhNode> bin, std::uint32_t root,
                                       std::array<std::uint32_t, 8>& frontier,
                                       rt::ExpandMasks& masks) {
  masks.fill(0);
  if (bin[root].is_leaf()) {
    frontier[0] = root;
    return 1;
  }
  frontier[0] = bin[root].left;
  frontier[1] = bin[root].right;
  std::uint32_t size = 2;
  std::uint32_t split_at[6];
  std::uint32_t n_expanded = 0;
  while (size < 8) {
    std::uint32_t expand = 8;
    float best = -1.0f;
    for (std::uint32_t i = 0; i < size; ++i) {
      const rt::BvhNode& node = bin[frontier[i]];
      const float area = node.is_leaf() ? -1.0f : node.bounds.surface_area();
      if (area > best) {
        best = area;
        expand = i;
      }
    }
    if (expand == 8) break;
    split_at[n_expanded++] = expand;
    const rt::BvhNode& node = bin[frontier[expand]];
    frontier[expand] = node.left;
    frontier[size++] = node.right;
  }
  std::uint8_t cover[8];
  for (std::uint32_t i = 0; i < size; ++i) cover[i] = static_cast<std::uint8_t>(1u << i);
  for (std::uint32_t j = n_expanded; j-- > 0;) {
    cover[split_at[j]] |= cover[2 + j];
    masks[j] = cover[split_at[j]];
  }
  return size;
}

/// The serial collapse: one breadth-first pass over the whole tree for
/// the topology, then a bottom-up sweep that quantizes every slot from the
/// exact union of the leaf boxes under it (united in primitive order).
inline Tree collapse(const rt::Bvh& bvh) {
  Tree tree;
  if (bvh.empty()) return tree;
  const std::span<const rt::BvhNode> bin = bvh.nodes();
  struct Pending {
    std::uint32_t bin_root, depth;
  };
  std::vector<Pending> queue{{bvh.root(), 0}};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Pending p = queue[head];
    tree.max_depth = std::max(tree.max_depth, p.depth);
    std::array<std::uint32_t, 8> frontier{};
    rt::ExpandMasks masks{};
    const std::uint32_t size = collapse_frontier(bin, p.bin_root, frontier, masks);
    rt::CompressedWideNode node{};
    node.count = static_cast<std::uint8_t>(size);
    std::uint8_t n_interior = 0, n_leaf = 0;
    for (std::uint32_t i = 0; i < size; ++i) {
      const rt::BvhNode& b = bin[frontier[i]];
      if (b.is_leaf()) {
        if (n_leaf == 0) node.leaf_base = static_cast<std::uint32_t>(tree.leaves.size());
        node.meta[i] = static_cast<std::uint8_t>(rt::CompressedWideNode::kMetaLeaf | n_leaf++);
        tree.leaves.push_back(b.first);
      } else {
        if (n_interior == 0) node.child_base = static_cast<std::uint32_t>(queue.size());
        node.meta[i] = n_interior++;
        queue.push_back({frontier[i], p.depth + 1});
      }
    }
    tree.nodes.push_back(node);
    tree.masks.push_back(masks);
  }

  // The sweep, children (later in BFS order) before parents.
  struct Content {
    Aabb bounds;
    std::uint32_t first;  // first leaf slot under the node
  };
  std::vector<Content> content(tree.nodes.size());
  for (std::size_t ni = tree.nodes.size(); ni-- > 0;) {
    rt::CompressedWideNode& node = tree.nodes[ni];
    Aabb slots[8];
    std::uint32_t first[8] = {};
    for (std::uint32_t i = 0; i < node.count; ++i) {
      if (node.is_leaf_slot(i)) {
        first[i] = tree.leaves[node.leaf_index(i)];
        slots[i] = bvh.prim_aabbs()[bvh.prim_order()[first[i]]];
      } else {
        slots[i] = content[node.child_index(i)].bounds;
        first[i] = content[node.child_index(i)].first;
      }
    }
    std::uint32_t order[8];
    for (std::uint32_t i = 0; i < node.count; ++i) order[i] = i;
    std::sort(order, order + node.count,
              [&](std::uint32_t a, std::uint32_t b) { return first[a] < first[b]; });
    Aabb all;
    for (std::uint32_t k = 0; k < node.count; ++k) all.grow(slots[order[k]]);
    content[ni] = {all, first[order[0]]};
    oracle::quantize_node(node, slots);
  }
  return tree;
}

/// Walks both trees from their roots in slot order and compares every
/// node's count, slot kinds, anchor, exponents, all 48 lane bytes, expand
/// masks and leaf records.
inline void expect_same_tree(const rt::WideBvh& got, const Tree& want, const std::string& label) {
  ASSERT_EQ(got.compressed_nodes().size(), want.nodes.size()) << label;
  ASSERT_EQ(got.leaves().size(), want.leaves.size()) << label;
  EXPECT_EQ(got.stats().max_depth, want.max_depth) << label;
  if (want.nodes.empty()) return;
  struct Pair {
    std::uint32_t got, want;
  };
  std::vector<Pair> stack{{got.root(), 0}};
  std::size_t visited = 0;
  while (!stack.empty()) {
    const Pair p = stack.back();
    stack.pop_back();
    ++visited;
    const rt::CompressedWideNode& g = got.compressed_nodes()[p.got];
    const rt::CompressedWideNode& w = want.nodes[p.want];
    const std::string where = label + " node " + std::to_string(visited);
    ASSERT_EQ(g.count, w.count) << where;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.anchor_x), std::bit_cast<std::uint32_t>(w.anchor_x))
        << where;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.anchor_y), std::bit_cast<std::uint32_t>(w.anchor_y))
        << where;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(g.anchor_z), std::bit_cast<std::uint32_t>(w.anchor_z))
        << where;
    EXPECT_EQ(g.exp_x, w.exp_x) << where;
    EXPECT_EQ(g.exp_y, w.exp_y) << where;
    EXPECT_EQ(g.exp_z, w.exp_z) << where;
    ASSERT_TRUE(std::equal(g.qlox, g.qlox + 48, w.qlox)) << where << ": lane bytes differ";
    ASSERT_EQ(got.expand_masks()[p.got], want.masks[p.want]) << where;
    for (std::uint32_t i = 0; i < g.count; ++i) {
      ASSERT_EQ(g.meta[i], w.meta[i]) << where << " slot " << i;
      if (g.is_leaf_slot(i)) {
        ASSERT_EQ(got.leaves()[g.leaf_index(i)], want.leaves[w.leaf_index(i)])
            << where << " slot " << i;
      }
    }
    for (std::uint32_t i = g.count; i-- > 0;) {
      if (!g.is_leaf_slot(i)) stack.push_back({g.child_index(i), w.child_index(i)});
    }
  }
  EXPECT_EQ(visited, want.nodes.size()) << label;
}

}  // namespace rtnn::testing::oracle
