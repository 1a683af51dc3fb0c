#include "rtnn/scheduler.hpp"

#include <numeric>

#include "core/aabb.hpp"
#include "core/morton.hpp"
#include "core/parallel.hpp"
#include "core/sort.hpp"

namespace rtnn {

std::vector<std::uint64_t> morton_keys(std::span<const Vec3> positions) {
  // One non-finite position must not stretch the frame of the others.
  Aabb bounds;
  for (const Vec3& p : positions) {
    if (is_finite(p)) bounds.grow(p);
  }
  std::vector<std::uint64_t> keys(positions.size());
  parallel_for(0, static_cast<std::int64_t>(positions.size()), [&](std::int64_t i) {
    keys[static_cast<std::size_t>(i)] =
        morton3d_63(positions[static_cast<std::size_t>(i)], bounds);
  }, grain::kElementwise);
  return keys;
}

ScheduleResult schedule_queries(std::span<const Vec3> queries) {
  ScheduleResult result;
  result.keys = morton_keys(queries);
  result.order.resize(queries.size());
  std::iota(result.order.begin(), result.order.end(), 0u);
  radix_sort_pairs(result.keys, result.order);
  return result;
}

}  // namespace rtnn
