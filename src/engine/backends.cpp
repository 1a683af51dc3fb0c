#include "engine/backends.hpp"

#include "core/error.hpp"
#include "core/timing.hpp"

namespace rtnn::engine {

namespace {

/// The door of every adapter's search(): the radius rule, then the caps.
void check_params(const SearchBackend& backend, const SearchParams& params) {
  check_radius(params.radius);
  const BackendCaps caps = backend.caps();
  RTNN_CHECK(params.mode != SearchMode::kRange || caps.range,
             "backend does not support range search");
  RTNN_CHECK(params.mode != SearchMode::kKnn || caps.knn,
             "backend does not support KNN search");
  RTNN_CHECK(caps.approximate ||
                 (params.aabb_scale == 1.0f && !params.elide_sphere_test),
             "backend answers exactly; approximate knobs not supported");
}

}  // namespace

// --- BruteForceBackend -------------------------------------------------------

void BruteForceBackend::set_points(std::span<const Vec3> points) {
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  points_.assign(points.begin(), points.end());
}

NeighborResult BruteForceBackend::search(std::span<const Vec3> queries,
                                         const SearchParams& params, Report* report) {
  check_params(*this, params);
  Timer timer;
  NeighborResult result =
      params.mode == SearchMode::kRange
          ? baselines::brute_force_range(points_, queries, params.radius, params.k,
                                         params.store_indices)
          : baselines::brute_force_knn(points_, queries, params.radius, params.k,
                                       params.store_indices);
  if (report) report->time.search += timer.elapsed();
  return result;
}

// --- GridBackend -------------------------------------------------------------

void GridBackend::set_points(std::span<const Vec3> points) {
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  points_.assign(points.begin(), points.end());
  radius_ = -1.0f;
}

NeighborResult GridBackend::search(std::span<const Vec3> queries,
                                   const SearchParams& params, Report* report) {
  check_params(*this, params);
  if (radius_ != params.radius) {
    Timer build;
    grid_.build(points_, params.radius);
    radius_ = params.radius;
    if (report) report->time.bvh += build.elapsed();  // structure build phase
  }
  Timer timer;
  const bool store = params.store_indices;
  NeighborResult result = params.mode == SearchMode::kRange
                              ? grid_.range_search(queries, params.k, store)
                              : grid_.knn_search(queries, params.k, store);
  if (report) report->time.search += timer.elapsed();
  return result;
}

// --- OctreeBackend -----------------------------------------------------------

void OctreeBackend::set_points(std::span<const Vec3> points) {
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  points_.assign(points.begin(), points.end());
  built_ = false;
}

NeighborResult OctreeBackend::search(std::span<const Vec3> queries,
                                     const SearchParams& params, Report* report) {
  check_params(*this, params);
  if (!built_) {
    Timer build;
    octree_.build(points_);
    built_ = true;
    if (report) report->time.bvh += build.elapsed();
  }
  Timer timer;
  NeighborResult result =
      params.mode == SearchMode::kRange
          ? octree_.range_search(queries, params.radius, params.k, params.store_indices)
          : octree_.knn_search(queries, params.radius, params.k, params.store_indices);
  if (report) report->time.search += timer.elapsed();
  return result;
}

// --- FastRnnBackend ----------------------------------------------------------

NeighborResult FastRnnBackend::search(std::span<const Vec3> queries,
                                      const SearchParams& params, Report* report) {
  check_params(*this, params);
  SearchParams naive = params;
  naive.opts = OptimizationFlags::none();  // the defining property
  return search_.search(queries, naive, report);
}

}  // namespace rtnn::engine
