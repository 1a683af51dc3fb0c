// Spatially-ordered query scheduling (paper section 4).
//
// The naive query-to-ray mapping follows input order, so adjacent rays in
// a warp can be spatially distant (incoherent). RTNN instead:
//   1. casts a truncated ray per query that terminates at its *first*
//     intersected leaf AABB ("initial search with K = 1", Listing 2) —
//     any enclosing AABB is an adequate spatial proxy for the query;
//   2. sorts queries by the Morton (Z-order) code of the first-hit AABB's
//     center, so queries sharing (or neighboring) an enclosing AABB get
//     adjacent ray ids (Figure 9).
// Queries that hit no AABB at all fall back to the Morton code of their
// own position, which preserves spatial grouping for them too.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vec3.hpp"
#include "optix/optix.hpp"
#include "rtcore/launch_stats.hpp"

namespace rtnn {

struct ScheduleResult {
  /// Query ids in scheduled (coherent) order — the query-to-ray mapping.
  std::vector<std::uint32_t> order;
  /// Stats of the first-hit launch (the FS phase of Figure 12).
  rt::LaunchStats first_hit_stats;
  /// Wall time of the first-hit launch (seconds).
  double first_hit_seconds = 0.0;
  /// Wall time of key generation + sort (part of the Opt phase).
  double sort_seconds = 0.0;
};

/// Computes the spatially-ordered query-to-ray mapping against `accel`
/// (the BVH whose leaf AABBs supply the spatial hints; `points` are the
/// AABB centers).
ScheduleResult schedule_queries(const ox::Accel& accel, std::span<const Vec3> points,
                                std::span<const Vec3> queries);

}  // namespace rtnn
