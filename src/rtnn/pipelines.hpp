// The OptiX shader pipelines of the RTNN algorithm.
//
// These are the direct ports of paper Listing 1 (range search) and its KNN
// variant ("the IS shader would operate a priority queue"). Listing 2's
// truncated first-hit pipeline has no port: queries are scheduled by
// their own Morton codes (rtnn/scheduler.hpp).
//
// Each pipeline's raygen() emits the paper's degenerate short ray from the
// query (tmin = 0, tmax = 1e-16, direction [1,0,0]) so that only AABBs
// *containing* the query intersect (Condition 2 of Figure 2); its
// intersection() is the IS shader performing the exact sphere test; and
// returning TraceAction::kTerminate plays the AH shader's role of killing
// the ray once K neighbors are found.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/aabb.hpp"
#include "core/flat_knn.hpp"
#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"
#include "optix/optix.hpp"

namespace rtnn::pipelines {

/// Range search (paper Listing 1). One launch index = one query = one ray.
/// `query_ids` maps launch index -> original query index, so partitioned /
/// reordered launches write results into the right rows.
class RangePipeline {
 public:
  RangePipeline(std::span<const Vec3> points, std::span<const Vec3> queries,
                std::span<const std::uint32_t> query_ids, float radius, std::uint32_t k,
                bool skip_sphere_test, NeighborResult& result)
      : points_(points),
        queries_(queries),
        query_ids_(query_ids),
        radius2_(radius * radius),
        k_(k),
        skip_sphere_test_(skip_sphere_test),
        result_(result) {}

  Ray raygen(std::uint32_t index) const {
    return Ray::short_ray(queries_[query_ids_[index]]);
  }

  ox::TraceAction intersection(std::uint32_t index, std::uint32_t prim) {
    const std::uint32_t query = query_ids_[index];
    // Step 2, the sphere test — elided when the partition's megacell is
    // strictly inside the search sphere (section 5.1: "the IS shader does
    // not have to perform the sphere test anymore"). Written as a failed
    // `<=` so a NaN distance (a NaN query coordinate) rejects.
    if (!skip_sphere_test_ &&
        !(distance2(points_[prim], queries_[query]) <= radius2_)) {
      return ox::TraceAction::kContinue;
    }
    const std::uint32_t count = result_.record(query, prim);
    // AH shader: terminate once K neighbors are recorded.
    return count >= k_ ? ox::TraceAction::kTerminate : ox::TraceAction::kContinue;
  }

 private:
  std::span<const Vec3> points_;
  std::span<const Vec3> queries_;
  std::span<const std::uint32_t> query_ids_;
  float radius2_;
  std::uint32_t k_;
  bool skip_sphere_test_;
  NeighborResult& result_;
};

/// KNN search: the IS shader maintains a bounded max-heap per ray, in the
/// heap pool's row of the ray's *launch index* (not its query id): a
/// launch's rows are its own, so the pool needs only one row per launch
/// index, and the caller drains row i into query query_ids[i]. Rays
/// are never terminated early — the K *nearest* neighbors can improve
/// until the traversal exhausts the tree (this is why KNN does more
/// traversal work than range search; paper section 6.3). What a full heap
/// does allow is culling: once a ray holds K neighbors, no box can help
/// unless it may hold a point nearer than the current K-th distance, and
/// cull_shrink() hands the walk that bound as a per-ray face shrink.
class KnnPipeline {
 public:
  /// Heap capacity (the K bound) lives in the heap pool, which needs a row
  /// per launch index.
  /// `aabb_width` is the width the traversed accel's point cubes were
  /// built with; it enables the cull bound. Without it (0, the default)
  /// cull_shrink() reports no bound and the walk visits what the short
  /// ray hits.
  KnnPipeline(std::span<const Vec3> points, std::span<const Vec3> queries,
              std::span<const std::uint32_t> query_ids, float radius, FlatKnnHeaps& heaps,
              float aabb_width = 0.0f)
      : points_(points),
        queries_(queries),
        query_ids_(query_ids),
        radius2_(radius * radius),
        half_width_(0.5f * aabb_width),
        heaps_(&heaps) {}

  Ray raygen(std::uint32_t index) const {
    return Ray::short_ray(queries_[query_ids_[index]]);
  }

  ox::TraceAction intersection(std::uint32_t index, std::uint32_t prim) {
    const float d2 = distance2(points_[prim], queries_[query_ids_[index]]);
    // A tie with the worst entry may still displace a larger id; push()
    // settles it by the (dist², id) order.
    if (d2 <= radius2_ && d2 <= heaps_->worst_dist2(index)) heaps_->push(index, d2, prim);
    return ox::TraceAction::kContinue;
  }

  /// The cull bound δ = h − s (rt::CullingProgram): h is half the AABB
  /// width and s the heap's K-th distance plus a rounding margin; δ ≤ 0
  /// (an unfilled heap, a NaN or infinite query, no width) culls nothing.
  ///
  /// Why a box that fails "q ∈ [lo+δ, hi−δ]" on some axis is safe to
  /// skip. Every point p under the box has lo ≤ fl(p.x − h) (the box
  /// contains the point's cube), so q.x < lo + δ means p.x − q.x > s up
  /// to rounding, and likewise on the hi side: p lies farther than s from
  /// q along one axis. A full heap with worst w still admits a point
  /// with fl(d²) = w (it may displace a tied larger id), so the bound may
  /// skip only points with fl(d²) > w, and s must absorb rounding
  /// (u = 2^-24):
  ///   * fl(d²) ≤ w gives |p.x − q.x| ≤ √w·(1 + 3u) + 2^-74 — each
  ///     rounded square is at most the rounded sum, and a square that
  ///     underflows loses at most 2^-150;
  ///   * the cube face fl(p.x − h) rounds by at most u·(|q|∞ + 2h);
  ///   * δ = fl(h − s), s = fl(√w + m) and fl(√w) each round by at most
  ///     u·h while δ > 0.
  /// So m ≥ u·(|q|∞ + 8h) + 2^-74 puts every skipped point past that
  /// bound, hence at fl(d²) > w. m = 2^-21·(|q|∞ + 2h) + 2^-64 covers it
  /// twice over and is 4–8 ulps of the coordinate magnitude, so a dense
  /// cloud far from the origin still culls. Within one launch the heap's
  /// worst only falls, so δ only grows and a culled point would have
  /// been rejected by intersection() at any later call: the heaps, and
  /// so every result row, are byte-identical with and without the bound.
  float cull_shrink(std::uint32_t index) const {
    if (half_width_ <= 0.0f) return 0.0f;  // built without a width: no bound
    const Vec3& q = queries_[query_ids_[index]];
    const float magnitude = std::max({std::abs(q.x), std::abs(q.y), std::abs(q.z)});
    const float margin = 0x1p-21f * (magnitude + 2.0f * half_width_) + 0x1p-64f;
    return half_width_ - (std::sqrt(heaps_->worst_dist2(index)) + margin);
  }

 private:
  std::span<const Vec3> points_;
  std::span<const Vec3> queries_;
  std::span<const std::uint32_t> query_ids_;
  float radius2_;
  float half_width_;
  FlatKnnHeaps* heaps_;
};

}  // namespace rtnn::pipelines
