// The steps behind NeighborSearch::search(), and the frame-loop session.
//
// search() is one straight line over its per-call state (SearchContext,
// defined in stages.cpp), driven by params.opts — the paper's end-to-end
// flow, Figure 12's phases, Figure 13's ablation axes:
//
//   schedule   opts.scheduling     Morton sort of the queries      [Opt]
//   partition  opts.partitioning   megacell grid + growth          [Opt]
//   bundle     opts.partitioning   cost-model scan, or one bundle
//                                  per partition (no_bundling())   [Opt]
//   launch     always              per-bundle BVH builds + chunked
//                                  launches                        [BVH/Search]
//
// search_with_plan() runs the same launch step on a caller's partitions
// and plan. The launch streams each launch unit's query ids through
// fixed-size chunks instead of materializing one concatenated id vector
// per bundle, so peak memory is O(chunk) rather than O(Q) per unit. KNN
// heaps are chunk-local too: one pool of min(Q, chunk) rows, indexed by
// launch index, drained into the call's result after each chunk's launch
// (and timed in time.search).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rtnn/neighbor_search.hpp"

namespace rtnn {

/// Queries per launch chunk. Bounds the ray buffer, the id scratch and
/// the KNN heap pool; launches wider than this are split (results are
/// row-addressed by query id, so splitting is invisible to output).
inline constexpr std::size_t kLaunchChunkSize = std::size_t{1} << 15;

/// Owns a point cloud across the frames of a dynamic sequence — lidar
/// sweeps, SPH timesteps, N-body steps — and answers each frame through
/// the index lifecycle instead of a from-scratch build:
///
///   frame 0    set_points + build            (time.bvh)
///   frame t    update_points + refit         (time.refit)  — usual case
///              ... or rebuild when the cost model's policy says the
///              refitted index has degraded    (time.bvh)
///
/// step() uploads the frame's positions (a changed count falls back to a
/// fresh upload + build) and runs the search; per-frame Reports stream the
/// phase times, the index action taken (accel_refits / accel_rebuilds)
/// and the observed sah_inflation. Search params are fixed at
/// construction: a stable radius is what makes the base-width accel
/// reusable frame over frame.
class DynamicSearchSession {
 public:
  explicit DynamicSearchSession(const SearchParams& params, const CostModel& model = {});

  /// Advances one frame: uploads `points` and answers `queries`.
  NeighborResult step(std::span<const Vec3> points, std::span<const Vec3> queries,
                      NeighborSearch::Report* report = nullptr);

  /// Self-neighborhood frame: the moved points query their own
  /// neighborhoods (the SPH / N-body shape).
  NeighborResult step(std::span<const Vec3> points,
                      NeighborSearch::Report* report = nullptr) {
    return step(points, points, report);
  }

  std::uint64_t frame() const { return frame_; }
  std::size_t point_count() const { return search_.point_count(); }
  const SearchParams& params() const { return params_; }
  /// The underlying engine (cost model swaps, ad-hoc queries, stats).
  NeighborSearch& core() { return search_; }

 private:
  NeighborSearch search_;
  SearchParams params_;
  std::uint64_t frame_ = 0;
};

}  // namespace rtnn
