// Morton (Z-order) codes.
//
// Two independent users in this codebase:
//   * the LBVH builder sorts primitive centroids by 30-bit 3D Morton code
//     (10 bits per axis) — the classic Karras/LBVH construction;
//   * RTNN's query scheduler sorts queries by the Morton code of their
//     own positions (paper section 4, Figure 9) so that adjacent rays are
//     spatially close; the serving batch optimizer and the tile planner
//     reuse that order (rtnn/scheduler.hpp).
// A 63-bit (21 bits/axis) variant is provided for large scenes where 10
// bits per axis would alias too many distinct cells.
#pragma once

#include <cstdint>

#include "core/aabb.hpp"
#include "core/vec3.hpp"

namespace rtnn {

/// Expands 10 low bits of `v` so that there are two zero bits between each
/// original bit: ...9876543210 -> 9..8..7..6..5..4..3..2..1..0.
constexpr std::uint32_t expand_bits_10(std::uint32_t v) {
  v &= 0x3ffu;
  v = (v * 0x00010001u) & 0xFF0000FFu;
  v = (v * 0x00000101u) & 0x0F00F00Fu;
  v = (v * 0x00000011u) & 0xC30C30C3u;
  v = (v * 0x00000005u) & 0x49249249u;
  return v;
}

/// Inverse of expand_bits_10.
constexpr std::uint32_t compact_bits_10(std::uint32_t v) {
  v &= 0x49249249u;
  v = (v ^ (v >> 2)) & 0xC30C30C3u;
  v = (v ^ (v >> 4)) & 0x0F00F00Fu;
  v = (v ^ (v >> 8)) & 0xFF0000FFu;
  v = (v ^ (v >> 16)) & 0x000003FFu;
  return v;
}

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

/// 30-bit Morton code from integer cell coordinates in [0, 1024).
constexpr std::uint32_t morton3d_30(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (expand_bits_10(x) << 2) | (expand_bits_10(y) << 1) | expand_bits_10(z);
}

/// 63-bit Morton code from integer cell coordinates in [0, 2^21).
constexpr std::uint64_t morton3d_63(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (expand_bits_21(x) << 2) | (expand_bits_21(y) << 1) | expand_bits_21(z);
}

/// 2D Morton code (for 2D searches), 16 bits per axis.
constexpr std::uint32_t morton2d_32(std::uint32_t x, std::uint32_t y) {
  auto expand16 = [](std::uint32_t v) constexpr {
    v &= 0xffffu;
    v = (v | (v << 8)) & 0x00FF00FFu;
    v = (v | (v << 4)) & 0x0F0F0F0Fu;
    v = (v | (v << 2)) & 0x33333333u;
    v = (v | (v << 1)) & 0x55555555u;
    return v;
  };
  return (expand16(x) << 1) | expand16(y);
}

constexpr void morton3d_30_decode(std::uint32_t code, std::uint32_t& x,
                                  std::uint32_t& y, std::uint32_t& z) {
  x = compact_bits_10(code >> 2);
  y = compact_bits_10(code >> 1);
  z = compact_bits_10(code);
}

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

/// 30-bit Morton code of point `p` normalized to `bounds`.
inline std::uint32_t morton3d_30(const Vec3& p, const Aabb& bounds) {
  const Vec3 n = bounds.normalized(p);
  return morton3d_30(detail::quantize(n.x, 1024),
                     detail::quantize(n.y, 1024),
                     detail::quantize(n.z, 1024));
}

/// 63-bit Morton code of point `p` normalized to `bounds`.
inline std::uint64_t morton3d_63(const Vec3& p, const Aabb& bounds) {
  constexpr std::uint32_t kBuckets = 1u << 21;
  const Vec3 n = bounds.normalized(p);
  return morton3d_63(detail::quantize(n.x, kBuckets),
                     detail::quantize(n.y, kBuckets),
                     detail::quantize(n.z, kBuckets));
}

}  // namespace rtnn
