#include "rtnn/partitioner.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/timing.hpp"

namespace rtnn {

namespace {

constexpr float kSqrt3 = 1.7320508f;

}  // namespace

float knn_aabb_width(float megacell_width) { return megacell_width * kSqrt3; }

PartitionSet partition_queries(const GridIndex& grid, std::span<const Vec3> queries,
                               std::span<const std::uint32_t> order,
                               const SearchParams& params) {
  RTNN_CHECK(grid.built(), "partition before grid build");
  RTNN_CHECK(order.size() == queries.size(), "order/queries size mismatch");
  Timer timer;
  PartitionSet set;
  set.cell_size = grid.cell_size();

  const float r = params.radius;
  const float cell = grid.cell_size();
  const std::uint32_t k = params.k;

  // Largest megacell inscribed in the r-sphere: width 2r/√3 (section 5.1,
  // "the largest possible megacell is the cube that is inscribed by the
  // sphere"). Growth stops *just before* piercing it.
  const float max_width = 2.0f * r / kSqrt3;
  const int sphere_steps =
      std::max(0, static_cast<int>(std::floor((max_width / cell - 1.0f) / 2.0f)));
  // Also no point growing past the whole grid.
  const Int3 res = grid.resolution();
  const int grid_steps = std::max({res.x, res.y, res.z});
  const int step_limit = std::min(sphere_steps, grid_steps);

  // Megacell growth per query (the CUDA kernel of section 5.1; the SAT
  // makes each growth step O(1)).
  const std::size_t n = queries.size();
  std::vector<std::uint32_t> steps(n);
  std::vector<std::uint8_t> hit_limit(n);
  parallel_for(0, static_cast<std::int64_t>(n), [&](std::int64_t i) {
    const Vec3 q = queries[static_cast<std::size_t>(i)];
    // Queries outside the point grid would be clamped to a border cell,
    // voiding the one-cell slop that underpins the width guarantees; they
    // take the conservative fallback partition instead.
    if (!grid.bounds().contains(q)) {
      steps[static_cast<std::size_t>(i)] = 0;
      hit_limit[static_cast<std::size_t>(i)] = 1;
      return;
    }
    const Int3 c = grid.cell_of(q);
    int s = 0;
    std::uint64_t count = grid.count_in_box(c, c);
    while (count < k && s < step_limit) {
      ++s;
      count = grid.count_in_box({c.x - s, c.y - s, c.z - s}, {c.x + s, c.y + s, c.z + s});
    }
    steps[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(s);
    hit_limit[static_cast<std::size_t>(i)] = (count < k) ? 1 : 0;
  });

  // Bucket queries by (steps, hit_limit) in scheduled order, so each
  // partition keeps the spatial coherence the scheduler established.
  // Key layout: hit-limited queries form one extra bucket at the end.
  const std::uint32_t n_step_buckets = static_cast<std::uint32_t>(step_limit) + 1;
  const std::uint32_t n_buckets = n_step_buckets + 1;
  std::vector<std::vector<std::uint32_t>> buckets(n_buckets);
  for (const std::uint32_t q : order) {
    const std::uint32_t b = hit_limit[q] ? n_step_buckets : steps[q];
    buckets[b].push_back(q);
  }

  for (std::uint32_t b = 0; b < n_buckets; ++b) {
    if (buckets[b].empty()) continue;
    Partition part;
    part.hit_sphere_limit = (b == n_step_buckets);
    part.steps = part.hit_sphere_limit ? static_cast<std::uint32_t>(step_limit) : b;
    part.megacell_width = (2.0f * static_cast<float>(part.steps) + 1.0f) * cell;

    // +1 cell of slop: the megacell is centered on the query's *cell*, but
    // the query sits anywhere within it, so point-centered AABBs need one
    // extra cell of width to capture the whole megacell from the query's
    // position.
    const float slopped = part.megacell_width + cell;

    if (part.hit_sphere_limit) {
      // The megacell could not establish a K-point guarantee (sparse
      // region, or a query outside the point grid): fall back to the
      // baseline width, which is always correct.
      part.aabb_width = 2.0f * r;
      part.skip_sphere_test = false;
    } else if (params.mode == SearchMode::kRange) {
      part.aabb_width = std::min(slopped, 2.0f * r);
      // Skip Step 2 only if every point whose AABB contains the query is
      // provably within r: |p-q|∞ ≤ w/2 ⇒ |p-q|₂ ≤ w·√3/2 ≤ r.
      part.skip_sphere_test = (part.aabb_width * kSqrt3 * 0.5f) <= r;
    } else {
      part.aabb_width = std::min(knn_aabb_width(slopped), 2.0f * r);
      part.skip_sphere_test = false;  // KNN always measures exact distance
    }

    const double a = static_cast<double>(part.megacell_width);
    part.density = static_cast<double>(k) / (a * a * a);
    part.query_ids = std::move(buckets[b]);
    set.partitions.push_back(std::move(part));
  }

  set.seconds = timer.elapsed();
  return set;
}

}  // namespace rtnn
