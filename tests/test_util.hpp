// Shared helpers for the correctness test suites: small dataset factories
// and result-comparison predicates. KNN rows compare exactly (every KNN
// path orders by (dist², id)); range rows compare as sets, since range
// slots fill in traversal order.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"
#include "datasets/lidar.hpp"
#include "datasets/nbody.hpp"
#include "datasets/surface.hpp"
#include "datasets/uniform.hpp"
#include "rtcore/wide_bvh.hpp"

namespace rtnn::testing {

enum class CloudKind { kUniform, kLidar, kSurface, kNBody };

inline std::string to_string(CloudKind kind) {
  switch (kind) {
    case CloudKind::kUniform: return "uniform";
    case CloudKind::kLidar: return "lidar";
    case CloudKind::kSurface: return "surface";
    case CloudKind::kNBody: return "nbody";
  }
  return "?";
}

/// Small, deterministic cloud of roughly `n` points of the given character.
inline std::vector<Vec3> make_cloud(CloudKind kind, std::size_t n, std::uint64_t seed) {
  switch (kind) {
    case CloudKind::kUniform:
      return data::uniform_box(n, {{0, 0, 0}, {1, 1, 1}}, seed);
    case CloudKind::kLidar: {
      data::LidarParams params;
      params.target_points = n;
      params.seed = seed;
      return data::lidar_scan(params);
    }
    case CloudKind::kSurface: {
      data::SurfaceParams params;
      params.target_points = n;
      params.seed = seed;
      return data::surface_scan(params);
    }
    case CloudKind::kNBody: {
      data::NBodyParams params;
      params.target_points = n;
      params.seed = seed;
      params.box_size = 10.0f;
      params.levels = 5;
      return data::nbody_cluster(params);
    }
  }
  return {};
}

/// A search radius that yields a useful neighbor count (~tens) for clouds
/// produced by make_cloud.
inline float typical_radius(CloudKind kind) {
  switch (kind) {
    case CloudKind::kUniform: return 0.06f;
    case CloudKind::kLidar: return 1.2f;
    case CloudKind::kSurface: return 0.02f;
    case CloudKind::kNBody: return 0.25f;
  }
  return 0.05f;
}

/// Per-query neighbor counts must match exactly.
inline void expect_counts_equal(const NeighborResult& got, const NeighborResult& expected,
                                const std::string& label) {
  ASSERT_EQ(got.num_queries(), expected.num_queries()) << label;
  for (std::size_t q = 0; q < got.num_queries(); ++q) {
    ASSERT_EQ(got.count(q), expected.count(q)) << label << " query " << q;
  }
}

/// Neighbor *sets* must match exactly (order-insensitive).
inline void expect_same_neighbor_sets(const NeighborResult& got,
                                      const NeighborResult& expected,
                                      const std::string& label) {
  ASSERT_EQ(got.num_queries(), expected.num_queries()) << label;
  for (std::size_t q = 0; q < got.num_queries(); ++q) {
    auto a = std::vector<std::uint32_t>(got.neighbors(q).begin(), got.neighbors(q).end());
    auto b = std::vector<std::uint32_t>(expected.neighbors(q).begin(),
                                        expected.neighbors(q).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << label << " query " << q;
  }
}

/// KNN rows must match slot for slot: every KNN path returns the K
/// smallest (dist², id) pairs within r, in that order.
inline void expect_knn_identical(const NeighborResult& got, const NeighborResult& expected,
                                 const std::string& label) {
  ASSERT_EQ(got.num_queries(), expected.num_queries()) << label;
  for (std::size_t q = 0; q < got.num_queries(); ++q) {
    const auto a = got.neighbors(q);
    const auto b = expected.neighbors(q);
    ASSERT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              std::vector<std::uint32_t>(b.begin(), b.end()))
        << label << " query " << q;
  }
}

/// Every reported neighbor must lie within `radius` of its query.
inline void expect_all_within_radius(std::span<const Vec3> points,
                                     std::span<const Vec3> queries,
                                     const NeighborResult& result, float radius,
                                     const std::string& label) {
  const float r2 = radius * radius;
  for (std::size_t q = 0; q < result.num_queries(); ++q) {
    for (const std::uint32_t p : result.neighbors(q)) {
      ASSERT_LE(distance2(points[p], queries[q]), r2 * (1.0f + 1e-5f))
          << label << " query " << q << " point " << p;
    }
  }
}

/// The box a wide tree holds for primitive `prim`: its leaf-ordered copy
/// of the box the primitive was built or last refit with.
inline Aabb prim_box(const rt::WideBvh& wide, std::uint32_t prim) {
  const auto order = wide.prim_order();
  const auto slot = std::find(order.begin(), order.end(), prim) - order.begin();
  return wide.ordered_prim_aabbs()[static_cast<std::size_t>(slot)];
}

}  // namespace rtnn::testing
