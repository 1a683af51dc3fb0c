#include "core/morton.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/rng.hpp"

namespace rtnn {
namespace {

TEST(Morton, ExpandCompact21Roundtrip) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{77777},
                          (std::uint64_t{1} << 21) - 1}) {
    EXPECT_EQ(compact_bits_21(expand_bits_21(v)), v);
  }
}

TEST(Morton, Encode63Decode63Roundtrip) {
  Pcg32 rng(321);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t x = rng.next_bounded(1u << 21);
    const std::uint32_t y = rng.next_bounded(1u << 21);
    const std::uint32_t z = rng.next_bounded(1u << 21);
    std::uint32_t dx, dy, dz;
    morton3d_63_decode(morton3d_63(x, y, z), dx, dy, dz);
    EXPECT_EQ(dx, x);
    EXPECT_EQ(dy, y);
    EXPECT_EQ(dz, z);
  }
}

TEST(Morton, BitInterleavingOrder) {
  // x occupies the highest bit of each 3-bit group (shift 2).
  EXPECT_EQ(morton3d_63(1, 0, 0), 0b100u);
  EXPECT_EQ(morton3d_63(0, 1, 0), 0b010u);
  EXPECT_EQ(morton3d_63(0, 0, 1), 0b001u);
  EXPECT_EQ(morton3d_63(1, 1, 1), 0b111u);
  EXPECT_EQ(morton3d_63(2, 0, 0), 0b100000u);
}

TEST(Morton, NormalizedPointEncoding) {
  const Aabb bounds{{0.0f, 0.0f, 0.0f}, {1.0f, 1.0f, 1.0f}};
  constexpr std::uint32_t kMax = (1u << 21) - 1;
  // Origin maps to code 0, far corner to the max code.
  EXPECT_EQ(morton3d_63(Vec3{0.0f, 0.0f, 0.0f}, bounds), 0u);
  EXPECT_EQ(morton3d_63(Vec3{1.0f, 1.0f, 1.0f}, bounds), morton3d_63(kMax, kMax, kMax));
  // Out-of-bounds points clamp instead of wrapping.
  EXPECT_EQ(morton3d_63(Vec3{-5.0f, 0.5f, 0.5f}, bounds),
            morton3d_63(0u, 1u << 20, 1u << 20));
  // NaN components land in bucket 0 of their axis without reaching the
  // float-to-integer cast (undefined for NaN); ±inf clamp like any
  // out-of-bounds value.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(morton3d_63(Vec3{nan, 0.5f, 0.5f}, bounds), morton3d_63(0u, 1u << 20, 1u << 20));
  EXPECT_EQ(morton3d_63(Vec3{inf, nan, 0.5f}, bounds), morton3d_63(kMax, 0u, 1u << 20));
  EXPECT_EQ(morton3d_63(Vec3{nan, nan, -inf}, bounds), 0u);
}

TEST(Morton, ZOrderPreservesLocalityOnAverage) {
  // Spatial locality property: for random point pairs, close-in-space
  // pairs should on average be closer in Morton order than far pairs.
  const Aabb bounds{{0.0f, 0.0f, 0.0f}, {1.0f, 1.0f, 1.0f}};
  Pcg32 rng(7);
  double near_code_dist = 0.0;
  double far_code_dist = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const Vec3 p = rng.uniform_in_aabb(bounds);
    Vec3 near = p + Vec3{0.01f, 0.01f, 0.01f};
    const Vec3 far = rng.uniform_in_aabb(bounds);
    const auto cp = static_cast<double>(morton3d_63(p, bounds));
    near_code_dist += std::abs(static_cast<double>(morton3d_63(near, bounds)) - cp);
    far_code_dist += std::abs(static_cast<double>(morton3d_63(far, bounds)) - cp);
  }
  EXPECT_LT(near_code_dist, far_code_dist * 0.5);
}

TEST(Morton, SortingByMortonGroupsOctants) {
  // All points of one octant sort before any point of the "next" octant
  // along the z-curve when octant bits dominate.
  const Aabb bounds{{0.0f, 0.0f, 0.0f}, {1.0f, 1.0f, 1.0f}};
  std::vector<std::uint64_t> low_codes, high_codes;
  Pcg32 rng(9);
  for (int i = 0; i < 100; ++i) {
    const Vec3 lo = rng.uniform_in_aabb({{0.0f, 0.0f, 0.0f}, {0.45f, 0.45f, 0.45f}});
    const Vec3 hi = rng.uniform_in_aabb({{0.55f, 0.55f, 0.55f}, {1.0f, 1.0f, 1.0f}});
    low_codes.push_back(morton3d_63(lo, bounds));
    high_codes.push_back(morton3d_63(hi, bounds));
  }
  const std::uint64_t max_low = *std::max_element(low_codes.begin(), low_codes.end());
  const std::uint64_t min_high = *std::min_element(high_codes.begin(), high_codes.end());
  EXPECT_LT(max_low, min_high);
}

}  // namespace
}  // namespace rtnn
