#include "rtnn/tile_plan.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/error.hpp"
#include "rtnn/scheduler.hpp"

namespace rtnn {

std::uint32_t plan_tile_count(std::size_t points, std::size_t tile_threshold,
                              std::uint32_t max_tiles) {
  if (tile_threshold == 0 || points <= tile_threshold) return 1;
  const std::size_t wanted = (points + tile_threshold - 1) / tile_threshold;
  // 0 = unbounded. The split is still bounded by the point count in
  // plan_tiles.
  if (max_tiles == 0) {
    return static_cast<std::uint32_t>(std::min<std::size_t>(
        wanted, std::numeric_limits<std::uint32_t>::max()));
  }
  return static_cast<std::uint32_t>(std::min<std::size_t>(wanted, max_tiles));
}

std::vector<std::vector<std::uint32_t>> plan_tiles(std::span<const Vec3> points,
                                                   std::uint32_t num_tiles) {
  RTNN_CHECK(!points.empty(), "cannot tile an empty cloud");
  const std::size_t n = points.size();
  num_tiles = static_cast<std::uint32_t>(
      std::min<std::size_t>(std::max<std::uint32_t>(num_tiles, 1), n));

  if (num_tiles == 1) {
    std::vector<std::uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    return {std::move(ids)};
  }

  // Sort the ids in the scheduler's Morton order, then cut the sorted
  // sequence into contiguous near-equal runs: each run is a compact
  // Z-order region.
  const std::vector<std::uint32_t> ids = schedule_queries(points).order;

  std::vector<std::vector<std::uint32_t>> tiles(num_tiles);
  const std::size_t base = n / num_tiles;
  const std::size_t extra = n % num_tiles;
  auto next = ids.begin();
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    const auto count = static_cast<std::ptrdiff_t>(base + (t < extra ? 1 : 0));
    tiles[t].assign(next, next + count);
    next += count;
  }
  return tiles;
}

}  // namespace rtnn
