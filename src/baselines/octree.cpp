#include "baselines/octree.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <queue>

#include "core/error.hpp"
#include "core/flat_knn.hpp"
#include "core/parallel.hpp"

namespace rtnn::baselines {

namespace {

// Squared distance from point to the cell (0 if inside).
float dist2_to_cell(const Vec3& p, const Aabb& cell) {
  float d2 = 0.0f;
  for (int axis = 0; axis < 3; ++axis) {
    const float v = p[axis];
    if (v < cell.lo[axis]) {
      d2 += (cell.lo[axis] - v) * (cell.lo[axis] - v);
    } else if (v > cell.hi[axis]) {
      d2 += (v - cell.hi[axis]) * (v - cell.hi[axis]);
    }
  }
  return d2;
}

// Largest squared distance from p to any corner of the cell.
float max_dist2_to_cell(const Vec3& p, const Aabb& cell) {
  float d2 = 0.0f;
  for (int axis = 0; axis < 3; ++axis) {
    const float d = std::max(std::abs(p[axis] - cell.lo[axis]), std::abs(p[axis] - cell.hi[axis]));
    d2 += d * d;
  }
  return d2;
}

// The plane a cell splits at: its midpoint, halved before adding so it
// cannot overflow, and between lo and hi whatever the rounding.
Vec3 split_of(const Aabb& cell) { return cell.lo * 0.5f + cell.hi * 0.5f; }

}  // namespace

void Octree::build(std::span<const Vec3> points, const Options& options) {
  RTNN_CHECK(!points.empty(), "cannot build an octree over zero points");
  RTNN_CHECK(options.leaf_capacity >= 1, "leaf capacity must be >= 1");
  points_.assign(points.begin(), points.end());
  nodes_.clear();

  Aabb bounds;
  for (const Vec3& p : points_) bounds.grow(p);
  // A cube around the points, grown by the points themselves in case the
  // cube's rounded faces fall short of them.
  const Vec3 center = bounds.center();
  const float half = 0.5f * max_component(bounds.extent()) * 1.0001f + 1e-6f;
  Aabb cell{center - Vec3{half, half, half}, center + Vec3{half, half, half}};
  cell.grow(bounds);

  point_ids_.resize(points_.size());
  std::iota(point_ids_.begin(), point_ids_.end(), 0u);

  Node root;
  root.cell = cell;
  root.first = 0;
  root.count = static_cast<std::uint32_t>(points_.size());
  nodes_.push_back(root);
  subdivide(0, point_ids_, 0, options);
}

void Octree::subdivide(std::uint32_t node_index, std::vector<std::uint32_t>& ids,
                       std::uint32_t depth, const Options& options) {
  // Copy out: nodes_ reallocates as children are appended.
  const Aabb cell = nodes_[node_index].cell;
  const Vec3 center = split_of(cell);
  const std::uint32_t first = nodes_[node_index].first;
  const std::uint32_t count = nodes_[node_index].count;
  if (count <= options.leaf_capacity || depth >= options.max_depth) return;

  // Partition this node's id range into the 8 octants (stable bucket
  // pass; octant = 3 bits of (x>=cx, y>=cy, z>=cz)).
  const auto begin = ids.begin() + first;
  const auto end = begin + count;
  std::array<std::uint32_t, 8> bucket_count{};
  auto octant_of = [&](std::uint32_t id) {
    const Vec3& p = points_[id];
    return (p.x >= center.x ? 1u : 0u) | (p.y >= center.y ? 2u : 0u) |
           (p.z >= center.z ? 4u : 0u);
  };
  for (auto it = begin; it != end; ++it) ++bucket_count[octant_of(*it)];
  std::array<std::uint32_t, 8> bucket_offset{};
  std::uint32_t sum = 0;
  for (int o = 0; o < 8; ++o) {
    bucket_offset[static_cast<std::size_t>(o)] = sum;
    sum += bucket_count[static_cast<std::size_t>(o)];
  }
  std::vector<std::uint32_t> scratch(begin, end);
  auto cursor = bucket_offset;
  for (const std::uint32_t id : scratch) {
    *(begin + cursor[octant_of(id)]++) = id;
  }

  const auto children = static_cast<std::uint32_t>(nodes_.size());
  nodes_[node_index].children = children;
  for (std::uint32_t o = 0; o < 8; ++o) {
    Node child;
    child.cell.lo = {(o & 1u) ? center.x : cell.lo.x, (o & 2u) ? center.y : cell.lo.y,
                     (o & 4u) ? center.z : cell.lo.z};
    child.cell.hi = {(o & 1u) ? cell.hi.x : center.x, (o & 2u) ? cell.hi.y : center.y,
                     (o & 4u) ? cell.hi.z : center.z};
    child.first = first + bucket_offset[o];
    child.count = bucket_count[o];
    nodes_.push_back(child);
  }
  for (std::uint32_t o = 0; o < 8; ++o) {
    if (nodes_[children + o].count > 0) subdivide(children + o, ids, depth + 1, options);
  }
}

NeighborResult Octree::range_search(std::span<const Vec3> queries, float radius,
                                    std::uint32_t k, bool store_indices) const {
  RTNN_CHECK(built(), "search before build");
  NeighborResult result(queries.size(), k, store_indices);
  const float r2 = radius * radius;
  parallel_for(0, static_cast<std::int64_t>(queries.size()), [&](std::int64_t qi) {
    const Vec3 q = queries[static_cast<std::size_t>(qi)];
    std::uint32_t stack[256];
    std::uint32_t sp = 0;
    stack[sp++] = 0;
    while (sp > 0) {
      const Node& node = nodes_[stack[--sp]];
      if (node.count == 0) continue;
      if (dist2_to_cell(q, node.cell) > r2) continue;
      if (!node.is_leaf() && max_dist2_to_cell(q, node.cell) <= r2) {
        // Whole subtree inside the sphere: its ids are contiguous.
        for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
          if (result.record(static_cast<std::size_t>(qi), point_ids_[s]) == k) return;
        }
        continue;
      }
      if (node.is_leaf()) {
        for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
          const std::uint32_t p = point_ids_[s];
          if (distance2(points_[p], q) <= r2) {
            if (result.record(static_cast<std::size_t>(qi), p) == k) return;
          }
        }
      } else {
        for (std::uint32_t o = 0; o < 8; ++o) stack[sp++] = node.children + o;
      }
    }
  }, 128);
  return result;
}

NeighborResult Octree::knn_search(std::span<const Vec3> queries, float radius,
                                  std::uint32_t k, bool store_indices) const {
  RTNN_CHECK(built(), "search before build");
  FlatKnnHeaps heaps(queries.size(), k);
  const float r2 = radius * radius;
  parallel_for(0, static_cast<std::int64_t>(queries.size()), [&](std::int64_t qi) {
    const auto row = static_cast<std::size_t>(qi);
    const Vec3 q = queries[row];
    using Cand = std::pair<float, std::uint32_t>;  // (min dist2, node)
    std::priority_queue<Cand, std::vector<Cand>, std::greater<>> frontier;
    frontier.emplace(dist2_to_cell(q, nodes_[0].cell), 0u);
    while (!frontier.empty()) {
      const auto [d2, ni] = frontier.top();
      frontier.pop();
      // Strict: a cell at exactly the worst distance may still hold a
      // tied point with a smaller id than the heap's root.
      if (d2 > r2 || d2 > heaps.worst_dist2(row)) break;
      const Node& node = nodes_[ni];
      if (node.is_leaf()) {
        for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
          const std::uint32_t p = point_ids_[s];
          const float pd2 = distance2(points_[p], q);
          if (pd2 <= r2) heaps.push(row, pd2, p);
        }
      } else {
        for (std::uint32_t o = 0; o < 8; ++o) {
          const Node& child = nodes_[node.children + o];
          if (child.count == 0) continue;
          frontier.emplace(dist2_to_cell(q, child.cell), node.children + o);
        }
      }
    }
  }, 64);
  return heaps.extract(store_indices);
}

void Octree::validate() const {
  RTNN_CHECK(built(), "validate before build");
  std::vector<std::uint32_t> seen(points_.size(), 0);
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    const Node& node = nodes_[ni];
    if (node.is_leaf()) {
      for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
        const std::uint32_t p = point_ids_[s];
        ++seen[p];
        RTNN_CHECK(node.cell.contains(points_[p]), "point outside its leaf cell");
      }
    } else {
      std::uint32_t child_total = 0;
      for (std::uint32_t o = 0; o < 8; ++o) {
        const Node& child = nodes_[node.children + o];
        child_total += child.count;
        RTNN_CHECK(node.cell.contains(child.cell), "child cell outside its parent");
        stack.push_back(node.children + o);
      }
      RTNN_CHECK(child_total == node.count, "children do not partition parent's points");
    }
  }
  for (const std::uint32_t s : seen) {
    RTNN_CHECK(s == 1, "point not in exactly one leaf");
  }
}

}  // namespace rtnn::baselines
