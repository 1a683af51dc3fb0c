#include "rtnn/batch_optimizer.hpp"

#include <algorithm>
#include <numeric>

#include "core/aabb.hpp"
#include "core/morton.hpp"
#include "core/parallel.hpp"
#include "core/sort.hpp"
#include "core/timing.hpp"

namespace rtnn {

namespace {

/// A bin while it is being assembled: the merged arrival-order rows live
/// here until finalize copies the survivors into bin.queries.
struct BinBuild {
  BatchBin bin;
  std::vector<Vec3> merged;
};

/// The dedup transfer guard: a representative's result is provably a
/// duplicate's result only for bitwise-coincident positions (value
/// equality; ±0 coincide and compute identical distances). Anything
/// merely near a representative stays its own exact search.
inline bool coincident(const Vec3& a, const Vec3& b) {
  return a.x == b.x && a.y == b.y && a.z == b.z;
}

/// Morton code of the grid cell holding `p`. Cells are `cell_width` wide,
/// anchored at the bin's lower bound; coordinates clamp to the 21-bit
/// Morton domain (clamping only coarsens far cells — dedup stays exact,
/// it compares positions, never cells).
inline std::uint64_t cell_key(const Vec3& p, const Vec3& lo, float cell_width) {
  constexpr std::uint32_t kMaxCell = (1u << 21) - 1;
  auto cell = [&](float v, float anchor) -> std::uint32_t {
    if (cell_width <= 0.0f) return 0;
    const float t = (v - anchor) / cell_width;
    if (t <= 0.0f) return 0;
    const auto c = static_cast<std::uint32_t>(t);
    return std::min(c, kMaxCell);
  };
  return morton3d_63(cell(p.x, lo.x), cell(p.y, lo.y), cell(p.z, lo.z));
}

void finalize_bin(BinBuild& build, const BatchOptimizerOptions& options) {
  BatchBin& bin = build.bin;
  const std::vector<Vec3>& merged = build.merged;
  const std::size_t n = merged.size();
  bin.merged_queries = n;
  bin.rep_rows.resize(n);
  if (n == 0) return;

  if (!options.reorder) {
    // Arrival order; every row is its own representative.
    bin.queries = merged;
    std::iota(bin.rep_rows.begin(), bin.rep_rows.end(), 0u);
    return;
  }

  // The reorder/dedup grid: cells one radius wide, widened when the bin
  // spans more than 2^21 cells per axis.
  Aabb bounds;
  for (const Vec3& q : merged) bounds.grow(q);
  const Vec3 extent = bounds.extent();
  const float span = std::max({extent.x, extent.y, extent.z, 0.0f});
  const float cell_width = std::max(bin.params.radius, span / static_cast<float>(1u << 21));
  std::vector<std::uint64_t> keys(n);
  parallel_for(0, static_cast<std::int64_t>(n), [&](std::int64_t i) {
    keys[static_cast<std::size_t>(i)] =
        cell_key(merged[static_cast<std::size_t>(i)], bounds.lo, cell_width);
  }, grain::kElementwise);

  // Visit order decides representative order (what the backend searches):
  // Morton-of-cell. The radix sort is stable, so coincident rows keep
  // arrival order within a cell and the elected representative is
  // deterministic.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  radix_sort_pairs(keys, order);  // keys sorted alongside

  // Sorted visit: a cell is one contiguous run of equal keys; each row
  // aliases a coincident representative of its run or becomes one.
  bin.queries.reserve(n);
  std::vector<std::uint32_t> run_reps;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && keys[i] != keys[i - 1]) run_reps.clear();
    const std::uint32_t row = order[i];
    const auto same = std::find_if(run_reps.begin(), run_reps.end(), [&](std::uint32_t rep) {
      return coincident(bin.queries[rep], merged[row]);
    });
    if (same != run_reps.end()) {
      bin.rep_rows[row] = *same;
      ++bin.deduped;
      continue;
    }
    bin.rep_rows[row] = static_cast<std::uint32_t>(bin.queries.size());
    run_reps.push_back(bin.rep_rows[row]);
    bin.queries.push_back(merged[row]);
  }
}

}  // namespace

BatchPlan optimize_batch(std::span<const BatchRequest> requests,
                         const BatchOptimizerOptions& options) {
  Timer timer;
  BatchPlan plan;
  std::vector<BinBuild> builds;
  // The open (most recent) bin of each distinct key; linear scan — a tick
  // holds a handful of distinct param sets, not thousands.
  std::vector<std::pair<BatchKey, std::size_t>> open;

  for (std::size_t r = 0; r < requests.size(); ++r) {
    const BatchRequest& request = requests[r];
    const BatchKey key = request.params.batch_key();
    const std::size_t rows = request.queries.size();

    BinBuild* target = nullptr;
    for (auto& [open_key, index] : open) {
      if (!(open_key == key)) continue;
      BinBuild& candidate = builds[index];
      // The per-bin cap starts a fresh bin rather than splitting a
      // request; an oversized request still gets a bin of its own.
      if (options.max_bin_queries == 0 || candidate.merged.empty() ||
          candidate.merged.size() + rows <= options.max_bin_queries) {
        target = &candidate;
      } else {
        index = builds.size();  // retire the full bin for this key
      }
      break;
    }
    if (target == nullptr) {
      if (std::none_of(open.begin(), open.end(),
                       [&](const auto& entry) { return entry.first == key; })) {
        open.emplace_back(key, builds.size());
      }
      builds.emplace_back();
      target = &builds.back();
      target->bin.params = request.params;
    }

    target->bin.slices.push_back({target->merged.size(), rows});
    target->bin.request_ids.push_back(r);
    target->merged.insert(target->merged.end(), request.queries.begin(),
                          request.queries.end());
  }

  plan.bins.reserve(builds.size());
  for (BinBuild& build : builds) {
    finalize_bin(build, options);
    plan.deduped += build.bin.deduped;
    plan.bins.push_back(std::move(build.bin));
  }
  plan.seconds = timer.elapsed();
  return plan;
}

}  // namespace rtnn
