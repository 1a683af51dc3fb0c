#include "rtcore/bvh.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "core/error.hpp"
#include "core/morton.hpp"
#include "core/parallel.hpp"
#include "core/sort.hpp"

namespace rtnn::rt {

namespace {

// Highest set bit position of x (x != 0).
inline int high_bit(std::uint64_t x) { return 63 - std::countl_zero(x); }

// Split position of the Morton-sorted range [lo, hi): first index whose
// code differs from codes[lo] at the highest differing bit; median split
// for duplicated codes.
std::uint32_t split_range(const std::vector<std::uint64_t>& codes, std::uint32_t lo,
                          std::uint32_t hi) {
  const std::uint32_t count = hi - lo;
  const std::uint64_t first_code = codes[lo];
  const std::uint64_t last_code = codes[hi - 1];
  if (first_code == last_code) return lo + count / 2;
  const int split_bit = high_bit(first_code ^ last_code);
  const std::uint64_t mask = ~((std::uint64_t{1} << split_bit) - 1);
  const std::uint64_t prefix = first_code & mask;
  std::uint32_t first = lo;
  std::uint32_t len = count;
  while (len > 1) {
    const std::uint32_t half = len / 2;
    const std::uint32_t probe = first + half;
    if ((codes[probe] & mask) == prefix) {
      first = probe;
      len -= half;
    } else {
      len = half;
    }
  }
  RTNN_DCHECK(first + 1 > lo && first + 1 < hi, "degenerate Morton split");
  return first + 1;
}

// Builds the subtree over sorted range [lo, hi) into a preallocated node
// array, its root at `slot`: with one primitive per leaf a range of len
// primitives occupies exactly 2*len-1 slots in pre-order. Writes every
// field of every node it emits (the array starts unwritten).
struct FixedSlotBuilder {
  const std::vector<std::uint64_t>& codes;
  const std::vector<std::uint32_t>& prim_order;
  std::span<const Aabb> prim_aabbs;
  BvhNode* nodes;
  std::uint32_t max_depth = 0;

  void build(std::uint32_t slot, std::uint32_t lo, std::uint32_t hi,
             std::uint32_t depth) {
    max_depth = std::max(max_depth, depth);
    if (hi - lo == 1) {
      nodes[slot] = BvhNode{prim_aabbs[prim_order[lo]], 0, 0, lo, 1};
      return;
    }
    const std::uint32_t mid = split_range(codes, lo, hi);
    const std::uint32_t left = slot + 1;
    const std::uint32_t right = slot + 1 + (2 * (mid - lo) - 1);
    build(left, lo, mid, depth + 1);
    build(right, mid, hi, depth + 1);
    nodes[slot] = BvhNode{unite(nodes[left].bounds, nodes[right].bounds), left, right, 0, 0};
  }
};

}  // namespace

void Bvh::build(std::span<const Aabb> prims) {
  build_impl(prims.size(), [prims](std::size_t i) { return prims[i]; });
}

void Bvh::build(std::span<const Vec3> centers, float width) {
  build_impl(centers.size(),
             [centers, width](std::size_t i) { return Aabb::cube(centers[i], width); });
}

template <typename PrimBox>
void Bvh::build_impl(std::size_t prim_count, PrimBox prim_box) {
  nodes_.clear();
  prim_order_.clear();
  prim_aabbs_.resize(prim_count);
  max_depth_seen_ = 0;
  scene_bounds_ = Aabb{};
  const auto n = static_cast<std::uint32_t>(prim_count);
  if (n == 0) return;

  // The Bvh's own copy of the boxes, and the centroid bounds for Morton
  // normalization, in one parallel reduction.
  struct Bounds2Acc {
    Aabb centroid;
    Aabb scene;
    std::uint64_t empties = 0;
  };
  const Bounds2Acc totals = parallel_reduce<Bounds2Acc>(
      0, n, Bounds2Acc{},
      [&](std::int64_t i) {
        const Aabb b = prim_box(static_cast<std::size_t>(i));
        prim_aabbs_[static_cast<std::size_t>(i)] = b;
        Bounds2Acc out;
        if (b.empty()) {
          out.empties = 1;  // diagnosed after the parallel region
        } else {
          out.centroid.grow(b.center());
          out.scene = b;
        }
        return out;
      },
      [](Bounds2Acc a, const Bounds2Acc& b) {
        a.centroid.grow(b.centroid);
        a.scene.grow(b.scene);
        a.empties += b.empties;
        return a;
      },
      grain::kElementwise);
  RTNN_CHECK(totals.empties == 0, "cannot build BVH over an empty AABB");
  scene_bounds_ = totals.scene;

  // Morton-sort primitive indices by centroid.
  std::vector<std::uint64_t> codes(n);
  parallel_for(0, n, [&](std::int64_t i) {
    codes[static_cast<std::size_t>(i)] =
        morton3d_63(prim_aabbs_[static_cast<std::size_t>(i)].center(), totals.centroid);
  }, grain::kElementwise);
  prim_order_.resize(n);
  std::iota(prim_order_.begin(), prim_order_.end(), 0u);
  radix_sort_pairs(codes, prim_order_);

  // Split the sorted range top-down into a serial skeleton and subtree
  // tasks of at most `cutoff` primitives below it, then build the tasks
  // in parallel. Every skeleton node and task root goes straight to the
  // slot the serial pre-order gives it (left = slot + 1, right = slot +
  // 2*len_left), so the tree is the same at any thread count. A small
  // build, or one on one worker, is a single task: the serial build.
  const int workers = num_threads();
  std::uint32_t cutoff = std::max<std::uint32_t>(
      4 * 1024, n / static_cast<std::uint32_t>(8 * std::max(workers, 1)));
  if (workers <= 1 || n <= 2 * cutoff) cutoff = n;
  struct Task {
    std::uint32_t lo, hi, depth, slot;
  };
  std::vector<Task> tasks;
  std::vector<std::uint32_t> skeleton;  // slots of the skeleton nodes, pre-order
  nodes_.resize(2 * static_cast<std::size_t>(n) - 1);
  std::vector<Task> stack{{0, n, 0, 0}};
  while (!stack.empty()) {
    const Task f = stack.back();
    stack.pop_back();
    if (f.hi - f.lo <= cutoff) {
      tasks.push_back(f);
      continue;
    }
    const std::uint32_t mid = split_range(codes, f.lo, f.hi);
    const std::uint32_t right = f.slot + 2 * (mid - f.lo);
    nodes_[f.slot] = BvhNode{Aabb{}, f.slot + 1, right, 0, 0};
    skeleton.push_back(f.slot);
    stack.push_back({mid, f.hi, f.depth + 1, right});
    stack.push_back({f.lo, mid, f.depth + 1, f.slot + 1});
  }

  // Each task is the first to write its range of the node array.
  std::vector<std::uint32_t> local_depth(tasks.size(), 0);
  parallel_for(0, static_cast<std::int64_t>(tasks.size()), [&](std::int64_t t) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    FixedSlotBuilder builder{codes, prim_order_, prim_aabbs_, nodes_.data()};
    builder.build(task.slot, task.lo, task.hi, 0);
    local_depth[static_cast<std::size_t>(t)] = builder.max_depth;
  }, grain::kTask);

  // Skeleton bounds, bottom-up: in pre-order a node's children come after
  // it, and a child that is a task root already has its bounds.
  for (auto it = skeleton.rbegin(); it != skeleton.rend(); ++it) {
    BvhNode& node = nodes_[*it];
    node.bounds = unite(nodes_[node.left].bounds, nodes_[node.right].bounds);
  }

  std::uint32_t deepest = 0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    deepest = std::max(deepest, local_depth[t] + tasks[t].depth);
  }
  max_depth_seen_ = deepest;
}

BvhStats Bvh::stats() const {
  BvhStats s;
  s.node_count = static_cast<std::uint32_t>(nodes_.size());
  s.max_depth = max_depth_seen_;
  if (nodes_.empty()) return s;
  const double root_area = nodes_[0].bounds.surface_area();
  for (const BvhNode& n : nodes_) {
    if (n.is_leaf()) ++s.leaf_count;
    // SAH: traversal cost 1 per interior node, intersection cost 1 per
    // leaf (its one primitive), weighted by the probability a random ray
    // visits.
    if (root_area > 0.0) s.sah_cost += n.bounds.surface_area() / root_area;
  }
  return s;
}

void Bvh::validate() const {
  if (nodes_.empty()) {
    RTNN_CHECK(prim_aabbs_.empty(), "empty tree but primitives present");
    return;
  }
  const auto n_prims = static_cast<std::uint32_t>(prim_aabbs_.size());
  RTNN_CHECK(prim_order_.size() == n_prims, "prim_order size mismatch");

  std::vector<std::uint32_t> slot_seen(n_prims, 0);
  std::vector<std::uint8_t> node_seen(nodes_.size(), 0);
  std::vector<std::uint32_t> stack{root()};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    RTNN_CHECK(ni < nodes_.size(), "child index out of range");
    RTNN_CHECK(!node_seen[ni], "node reachable twice (cycle or DAG)");
    node_seen[ni] = 1;
    const BvhNode& node = nodes_[ni];
    if (node.is_leaf()) {
      RTNN_CHECK(node.count == 1, "leaf does not hold exactly one primitive");
      RTNN_CHECK(node.first < n_prims, "leaf slot out of bounds");
      const std::uint32_t prim = prim_order_[node.first];
      RTNN_CHECK(prim < n_prims, "primitive id out of range");
      ++slot_seen[prim];
      RTNN_CHECK(node.bounds.contains(prim_aabbs_[prim]),
                 "leaf bounds do not contain primitive AABB");
    } else {
      RTNN_CHECK(node.left != node.right, "interior node with identical children");
      const BvhNode& l = nodes_[node.left];
      const BvhNode& r = nodes_[node.right];
      RTNN_CHECK(node.bounds.contains(l.bounds), "parent does not contain left child");
      RTNN_CHECK(node.bounds.contains(r.bounds), "parent does not contain right child");
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  for (std::uint32_t p = 0; p < n_prims; ++p) {
    RTNN_CHECK(slot_seen[p] == 1, "primitive not in exactly one leaf");
  }
}

}  // namespace rtnn::rt
