#include "rtnn/scheduler.hpp"

#include <numeric>

#include "core/morton.hpp"
#include "core/parallel.hpp"
#include "core/sort.hpp"
#include "core/timing.hpp"
#include "rtnn/pipelines.hpp"

namespace rtnn {

ScheduleResult schedule_queries(const ox::Accel& accel, std::span<const Vec3> points,
                                std::span<const Vec3> queries) {
  ScheduleResult result;
  const std::size_t n = queries.size();
  result.order.resize(n);
  std::iota(result.order.begin(), result.order.end(), 0u);
  if (n == 0) return result;

  // First ray-tracing launch: return on first hit (Listing 2, line 3).
  std::vector<std::uint32_t> first_hit(n, pipelines::FirstHitPipeline::kNoHit);
  {
    Timer timer;
    pipelines::FirstHitPipeline pipeline(queries, first_hit);
    result.first_hit_stats = ox::launch(accel, pipeline, static_cast<std::uint32_t>(n));
    result.first_hit_seconds = timer.elapsed();
  }

  // Z-order sort of the first-hit AABB centers (= the points themselves),
  // used as the sort key for the queries (Figure 9).
  Timer timer;
  const Aabb scene = accel.scene_bounds();
  std::vector<std::uint64_t> keys(n);
  parallel_for(0, static_cast<std::int64_t>(n), [&](std::int64_t i) {
    const std::uint32_t hit = first_hit[static_cast<std::size_t>(i)];
    const Vec3 anchor = (hit == pipelines::FirstHitPipeline::kNoHit)
                            ? queries[static_cast<std::size_t>(i)]
                            : points[hit];
    keys[static_cast<std::size_t>(i)] = morton3d_63(anchor, scene);
  });
  radix_sort_pairs(keys, result.order);
  result.sort_seconds = timer.elapsed();
  return result;
}

}  // namespace rtnn
