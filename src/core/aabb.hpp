// Axis-aligned bounding boxes.
//
// AABBs are the primitive of the whole system: RTNN builds one AABB per
// search point (width = 2r, paper Listing 1) and the BVH is a hierarchy of
// AABBs. The ray-AABB intersection conditions of paper Figure 2 live here.
#pragma once

#include <algorithm>
#include <iosfwd>
#include <limits>

#include "core/vec3.hpp"

namespace rtnn {

/// Axis-aligned bounding box, stored as inclusive [lo, hi] corners.
/// A default-constructed Aabb is *empty* (inverted bounds) and behaves as
/// the identity for grow()/unite().
struct Aabb {
  Vec3 lo{std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::infinity()};
  Vec3 hi{-std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity()};

  constexpr Aabb() = default;
  constexpr Aabb(const Vec3& lo_, const Vec3& hi_) : lo(lo_), hi(hi_) {}

  /// The cube of width `width` centered at `center`; this is how RTNN
  /// wraps every search point (center = point, width = 2 * radius).
  static constexpr Aabb cube(const Vec3& center, float width) {
    const float h = width * 0.5f;
    return {{center.x - h, center.y - h, center.z - h},
            {center.x + h, center.y + h, center.z + h}};
  }

  constexpr bool empty() const { return lo.x > hi.x || lo.y > hi.y || lo.z > hi.z; }

  constexpr Vec3 center() const { return (lo + hi) * 0.5f; }
  constexpr Vec3 extent() const { return hi - lo; }

  /// Surface area; used by BVH quality metrics (SAH cost of a subtree).
  constexpr float surface_area() const {
    if (empty()) return 0.0f;
    const Vec3 e = extent();
    return 2.0f * (e.x * e.y + e.y * e.z + e.z * e.x);
  }

  constexpr float volume() const {
    if (empty()) return 0.0f;
    const Vec3 e = extent();
    return e.x * e.y * e.z;
  }

  /// Inclusive point containment — exactly the "query resides in the AABB"
  /// test of Step 1 in the paper's algorithm.
  constexpr bool contains(const Vec3& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
  }

  constexpr bool contains(const Aabb& other) const {
    return other.empty() ||
           (contains(other.lo) && contains(other.hi));
  }

  constexpr bool overlaps(const Aabb& other) const {
    return !empty() && !other.empty() &&
           lo.x <= other.hi.x && hi.x >= other.lo.x &&
           lo.y <= other.hi.y && hi.y >= other.lo.y &&
           lo.z <= other.hi.z && hi.z >= other.lo.z;
  }

  void grow(const Vec3& p) {
    lo = rtnn::min(lo, p);
    hi = rtnn::max(hi, p);
  }

  void grow(const Aabb& other) {
    lo = rtnn::min(lo, other.lo);
    hi = rtnn::max(hi, other.hi);
  }

  /// Expand every face outward by `margin` (used to pad scene bounds).
  constexpr Aabb expanded(float margin) const {
    return {{lo.x - margin, lo.y - margin, lo.z - margin},
            {hi.x + margin, hi.y + margin, hi.z + margin}};
  }

  /// Normalized coordinates of `p` within the box, each in [0, 1] when the
  /// point is inside. Degenerate axes (zero extent) map to 0.
  constexpr Vec3 normalized(const Vec3& p) const {
    const Vec3 e = extent();
    return {e.x > 0.0f ? (p.x - lo.x) / e.x : 0.0f,
            e.y > 0.0f ? (p.y - lo.y) / e.y : 0.0f,
            e.z > 0.0f ? (p.z - lo.z) / e.z : 0.0f};
  }

  constexpr bool operator==(const Aabb& o) const { return lo == o.lo && hi == o.hi; }
  constexpr bool operator!=(const Aabb& o) const { return !(*this == o); }
};

inline Aabb unite(const Aabb& a, const Aabb& b) {
  Aabb r = a;
  r.grow(b);
  return r;
}

std::ostream& operator<<(std::ostream& os, const Aabb& b);

/// A ray segment P(t) = origin + t * dir for t in [tmin, tmax]
/// (paper equation (1)). RTNN uses degenerate, near-zero-length rays
/// (tmax = 1e-16) so that only AABBs *containing the origin* intersect —
/// intersection Condition 2 of paper Figure 2.
struct Ray {
  Vec3 origin;
  Vec3 dir{1.0f, 0.0f, 0.0f};
  float tmin = 0.0f;
  float tmax = 1e-16f;

  /// The short ray RTNN casts from a query point (paper section 3.1:
  /// tmin = 0, tmax = 1e-16, direction [1,0,0]).
  static constexpr Ray short_ray(const Vec3& query) {
    return Ray{query, {1.0f, 0.0f, 0.0f}, 0.0f, 1e-16f};
  }
};

/// The reciprocal direction (±inf for zero components) used by the slab
/// test; traversal loops compute it once per ray instead of per node.
inline Vec3 reciprocal_dir(const Ray& ray) {
  return {1.0f / ray.dir.x, 1.0f / ray.dir.y, 1.0f / ray.dir.z};
}

/// Ray-AABB intersection implementing *both* conditions of paper Figure 2:
///   1. the slab test hits a face with t inside [tmin, tmax], or
///   2. the ray origin lies inside the AABB (required so a ray starting
///      inside a node is still allowed to descend into children).
/// Branchless slab test except for the early containment check. The 8-wide
/// node test (rt::detail::node_hits) must stay decision-identical to this
/// scalar form, including its NaN behavior (no swap, keep t0/t1).
inline bool ray_intersects_aabb(const Ray& ray, const Aabb& box, const Vec3& inv_dir) {
  // Condition 2: origin inside the box.
  if (box.contains(ray.origin)) return true;
  // Condition 1: standard slab test against the six faces.
  float t0 = ray.tmin;
  float t1 = ray.tmax;
  for (int axis = 0; axis < 3; ++axis) {
    const float inv = inv_dir[axis];
    float tnear = (box.lo[axis] - ray.origin[axis]) * inv;
    float tfar = (box.hi[axis] - ray.origin[axis]) * inv;
    if (tnear > tfar) std::swap(tnear, tfar);
    t0 = tnear > t0 ? tnear : t0;
    t1 = tfar < t1 ? tfar : t1;
    if (t0 > t1) return false;
  }
  return true;
}

inline bool ray_intersects_aabb(const Ray& ray, const Aabb& box) {
  return ray_intersects_aabb(ray, box, reciprocal_dir(ray));
}

}  // namespace rtnn
