#include "baselines/brute_force.hpp"

#include "core/flat_knn.hpp"
#include "core/parallel.hpp"

namespace rtnn::baselines {

NeighborResult brute_force_range(std::span<const Vec3> points, std::span<const Vec3> queries,
                                 float radius, std::uint32_t k, bool store_indices) {
  NeighborResult result(queries.size(), k, store_indices);
  const float r2 = radius * radius;
  parallel_for(0, static_cast<std::int64_t>(queries.size()), [&](std::int64_t q) {
    const Vec3 query = queries[static_cast<std::size_t>(q)];
    for (std::uint32_t p = 0; p < points.size(); ++p) {
      if (distance2(points[p], query) <= r2) {
        if (result.record(static_cast<std::size_t>(q), p) == k) break;
      }
    }
  }, 64);
  return result;
}

NeighborResult brute_force_knn(std::span<const Vec3> points, std::span<const Vec3> queries,
                               float radius, std::uint32_t k, bool store_indices) {
  FlatKnnHeaps heaps(queries.size(), k);
  const float r2 = radius * radius;
  parallel_for(0, static_cast<std::int64_t>(queries.size()), [&](std::int64_t qi) {
    const auto q = static_cast<std::size_t>(qi);
    for (std::uint32_t p = 0; p < points.size(); ++p) {
      const float d2 = distance2(points[p], queries[q]);
      if (d2 <= r2) heaps.push(q, d2, p);
    }
  }, 64);
  return heaps.extract(store_indices);
}

}  // namespace rtnn::baselines
