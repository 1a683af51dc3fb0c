#include "rtnn/batch_optimizer.hpp"

#include <algorithm>
#include <numeric>

#include "core/timing.hpp"
#include "rtnn/scheduler.hpp"

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

  // Visit order decides representative order (what the backend searches):
  // the scheduler's Morton order. The sort is stable, so coincident rows
  // (always one key) keep arrival order within their run and the elected
  // representative is deterministic.
  const ScheduleResult sorted = schedule_queries(merged);
  const std::vector<std::uint64_t>& keys = sorted.keys;
  const std::vector<std::uint32_t>& order = sorted.order;

  // Sorted visit: each row aliases a coincident representative of its
  // run of equal keys or becomes one.
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
