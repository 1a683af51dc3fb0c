// Minimal 3D vector math used throughout RTNN.
//
// Neighbor search in this codebase is always over `float` coordinates
// (matching the GPU implementation the paper builds on); distances are
// compared in squared form wherever possible to avoid sqrt.
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>

namespace rtnn {

/// 3-component float vector (point, direction, or extent).
struct Vec3 {
  float x = 0.0f;
  float y = 0.0f;
  float z = 0.0f;

  constexpr Vec3() = default;
  constexpr Vec3(float x_, float y_, float z_) : x(x_), y(y_), z(z_) {}
  /// Splat constructor: all three components set to `v`.
  constexpr explicit Vec3(float v) : x(v), y(v), z(v) {}

  constexpr float operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }
  float& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }

  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(float s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

  Vec3& operator+=(const Vec3& o) { x += o.x; y += o.y; z += o.z; return *this; }
  Vec3& operator-=(const Vec3& o) { x -= o.x; y -= o.y; z -= o.z; return *this; }
  Vec3& operator*=(float s) { x *= s; y *= s; z *= s; return *this; }
  Vec3& operator/=(float s) { x /= s; y /= s; z /= s; return *this; }

  constexpr bool operator==(const Vec3& o) const { return x == o.x && y == o.y && z == o.z; }
  constexpr bool operator!=(const Vec3& o) const { return !(*this == o); }
};

constexpr Vec3 operator*(float s, const Vec3& v) { return v * s; }

constexpr float dot(const Vec3& a, const Vec3& b) { return a.x * b.x + a.y * b.y + a.z * b.z; }

constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

/// Squared Euclidean length. Prefer this over length() in hot paths.
constexpr float length2(const Vec3& v) { return dot(v, v); }

inline float length(const Vec3& v) { return std::sqrt(length2(v)); }

inline Vec3 normalize(const Vec3& v) {
  const float len = length(v);
  return len > 0.0f ? v / len : Vec3{0.0f, 0.0f, 0.0f};
}

/// Squared distance between two points; the fundamental test of Step 2
/// ("sphere test") in the RTNN algorithm (paper section 3.1).
constexpr float distance2(const Vec3& a, const Vec3& b) { return length2(a - b); }

inline float distance(const Vec3& a, const Vec3& b) { return length(a - b); }

constexpr Vec3 min(const Vec3& a, const Vec3& b) {
  return {a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y, a.z < b.z ? a.z : b.z};
}

constexpr Vec3 max(const Vec3& a, const Vec3& b) {
  return {a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y, a.z > b.z ? a.z : b.z};
}

constexpr float min_component(const Vec3& v) {
  return v.x < v.y ? (v.x < v.z ? v.x : v.z) : (v.y < v.z ? v.y : v.z);
}

constexpr float max_component(const Vec3& v) {
  return v.x > v.y ? (v.x > v.z ? v.x : v.z) : (v.y > v.z ? v.y : v.z);
}

/// Component-wise linear interpolation.
constexpr Vec3 lerp(const Vec3& a, const Vec3& b, float t) { return a + (b - a) * t; }

inline bool is_finite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

std::ostream& operator<<(std::ostream& os, const Vec3& v);

/// 3-component signed integer vector (grid-cell coordinates).
struct Int3 {
  int x = 0;
  int y = 0;
  int z = 0;

  constexpr Int3() = default;
  constexpr Int3(int x_, int y_, int z_) : x(x_), y(y_), z(z_) {}

  constexpr int operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }
  int& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }

  constexpr Int3 operator+(const Int3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Int3 operator-(const Int3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr bool operator==(const Int3& o) const { return x == o.x && y == o.y && z == o.z; }
  constexpr bool operator!=(const Int3& o) const { return !(*this == o); }
};

std::ostream& operator<<(std::ostream& os, const Int3& v);

/// The cell along one grid axis of `cells` cells holding a coordinate in
/// cell units (t = (x - lo) / cell_size): floor(t) clamped to
/// [0, cells - 1]. The clamp happens in float, before the cast, so ±inf
/// and |t| >= 2^31 land on the end cells instead of in an undefined
/// float-to-int conversion; NaN lands in cell 0.
inline int clamp_cell(float t, int cells) {
  if (!(t > 0.0f)) return 0;  // below the grid, or NaN
  if (t >= static_cast<float>(cells - 1)) return cells - 1;
  return static_cast<int>(t);  // floor, since 0 < t < cells - 1
}

}  // namespace rtnn
