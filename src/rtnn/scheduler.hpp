// Spatially-ordered query scheduling (paper section 4).
//
// The naive query-to-ray mapping follows input order, so adjacent rays in
// a warp can be spatially distant (incoherent). RTNN sorts the queries
// along a Z-order curve so that adjacent ray ids are spatially close
// (Figure 9).
//
// Deviation from the paper: Listing 2 first casts one truncated ray per
// query and keys the sort on the Morton code of the AABB that ray hits
// first. That AABB lies within w/2 of the query, so its code is nearly the
// query's own; here every query is keyed by its own position instead, and
// no launch runs. The paper calls the first-hit cast negligible on RT
// hardware. On this CPU substrate it was a full launch over the
// incoherent input order: 19% of a batch_knn round (0.327 s of 1.71 s,
// 500k KITTI points, against 0.951 s of search). A ray's walk does not
// depend on launch order, so every result row is unchanged.
//
// The same order is the repo's one spatial sort of positions: the serving
// batch optimizer reorders each bin by it, and the tile planner cuts a
// cloud into tiles along it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vec3.hpp"

namespace rtnn {

struct ScheduleResult {
  /// Query ids in scheduled (coherent) order — the query-to-ray mapping.
  std::vector<std::uint32_t> order;
  /// The sort keys in scheduled order: keys[i] is query order[i]'s code.
  std::vector<std::uint64_t> keys;
};

/// The 63-bit Morton code of every position, over the bounds of the
/// finite positions. Coincident positions get equal codes; NaN and
/// infinite coordinates clamp to the ends of their axis.
std::vector<std::uint64_t> morton_keys(std::span<const Vec3> positions);

/// The stable ascending order of morton_keys(queries).
ScheduleResult schedule_queries(std::span<const Vec3> queries);

}  // namespace rtnn
