// Morton (Z-order) codes, 63 bits: 21 per axis.
//
// Two independent users in this codebase:
//   * the LBVH builder sorts primitive centroids by their Morton code over
//     the centroid bounds — the classic Karras/LBVH construction;
//   * RTNN's query scheduler sorts queries by the Morton code of their
//     own positions (paper section 4, Figure 9) so that adjacent rays are
//     spatially close; the serving batch optimizer and the tile planner
//     reuse that order (rtnn/scheduler.hpp).
#pragma once

#include <cstdint>

#include "core/aabb.hpp"
#include "core/vec3.hpp"

namespace rtnn {

/// Expands 21 low bits of `v` with two zero bits between each original bit.
constexpr std::uint64_t expand_bits_21(std::uint64_t v) {
  v &= 0x1fffffull;
  v = (v | (v << 32)) & 0x1f00000000ffffull;
  v = (v | (v << 16)) & 0x1f0000ff0000ffull;
  v = (v | (v << 8)) & 0x100f00f00f00f00full;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ull;
  v = (v | (v << 2)) & 0x1249249249249249ull;
  return v;
}

constexpr std::uint64_t compact_bits_21(std::uint64_t v) {
  v &= 0x1249249249249249ull;
  v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3ull;
  v = (v ^ (v >> 4)) & 0x100f00f00f00f00full;
  v = (v ^ (v >> 8)) & 0x1f0000ff0000ffull;
  v = (v ^ (v >> 16)) & 0x1f00000000ffffull;
  v = (v ^ (v >> 32)) & 0x1fffffull;
  return v;
}

/// 63-bit Morton code from integer cell coordinates in [0, 2^21).
constexpr std::uint64_t morton3d_63(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (expand_bits_21(x) << 2) | (expand_bits_21(y) << 1) | expand_bits_21(z);
}

/// Inverse of morton3d_63(x, y, z).
constexpr void morton3d_63_decode(std::uint64_t code, std::uint32_t& x,
                                  std::uint32_t& y, std::uint32_t& z) {
  x = static_cast<std::uint32_t>(compact_bits_21(code >> 2));
  y = static_cast<std::uint32_t>(compact_bits_21(code >> 1));
  z = static_cast<std::uint32_t>(compact_bits_21(code));
}

namespace detail {
/// Bucket of normalized coordinate `t` in [0, buckets). Out-of-range
/// values clamp to the end buckets; NaN maps to bucket 0 (written as a
/// failed `>` so NaN never reaches the float-to-integer cast, where it
/// would be undefined behaviour).
inline std::uint32_t quantize(float t, std::uint32_t buckets) {
  if (!(t > 0.0f)) return 0;
  if (t >= 1.0f) return buckets - 1;
  const auto q = static_cast<std::uint32_t>(t * static_cast<float>(buckets));
  return q < buckets ? q : buckets - 1;
}
}  // namespace detail

/// 63-bit Morton code of point `p` normalized to `bounds`.
inline std::uint64_t morton3d_63(const Vec3& p, const Aabb& bounds) {
  constexpr std::uint32_t kBuckets = 1u << 21;
  const Vec3 n = bounds.normalized(p);
  return morton3d_63(detail::quantize(n.x, kBuckets),
                     detail::quantize(n.y, kBuckets),
                     detail::quantize(n.z, kBuckets));
}

}  // namespace rtnn
