#include "rtnn/batch_optimizer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
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

/// A row of a run of equal Morton keys, keyed by its position bits. The
/// dedup transfer guard is value equality of positions: bits equal after
/// folding -0 into +0 (±0 compute identical distances). A NaN coordinate
/// equals nothing, so NaN rows never get an entry.
struct RunEntry {
  std::array<std::uint32_t, 3> bits;
  std::uint32_t visit;  // index into the sorted visit order

  friend auto operator<=>(const RunEntry&, const RunEntry&) = default;
};

std::uint32_t position_bits(float v) {
  return std::bit_cast<std::uint32_t>(v == 0.0f ? 0.0f : v);
}

bool has_nan(const Vec3& p) { return std::isnan(p.x) || std::isnan(p.y) || std::isnan(p.z); }

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

  // Sorted visit, one run of equal keys at a time: each row aliases the
  // representative of its leader — the run's first-visited row coincident
  // with it — or becomes one.
  bin.queries.reserve(n);
  const auto visit = [&](std::size_t i, std::size_t lead) {
    const std::uint32_t row = order[i];
    if (lead != i) {
      bin.rep_rows[row] = bin.rep_rows[order[lead]];
      ++bin.deduped;
      return;
    }
    bin.rep_rows[row] = static_cast<std::uint32_t>(bin.queries.size());
    bin.queries.push_back(merged[row]);
  };
  std::vector<RunEntry> run;
  std::vector<std::uint32_t> leader;  // leader[i - begin]: visit i's leader
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    end = begin + 1;
    while (end < n && keys[end] == keys[begin]) ++end;
    if (end - begin == 1) {
      visit(begin, begin);
      continue;
    }
    // Sorting the run's entries by (bits, visit) puts each coincident
    // group together, leader first, so a run of many distinct rows costs
    // O(len log len), not O(len²).
    run.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3& p = merged[order[i]];
      if (has_nan(p)) continue;
      run.push_back({{position_bits(p.x), position_bits(p.y), position_bits(p.z)},
                     static_cast<std::uint32_t>(i)});
    }
    std::sort(run.begin(), run.end());
    leader.resize(end - begin);
    std::iota(leader.begin(), leader.end(), static_cast<std::uint32_t>(begin));
    for (std::size_t j = 1; j < run.size(); ++j) {
      if (run[j].bits == run[j - 1].bits) {
        leader[run[j].visit - begin] = leader[run[j - 1].visit - begin];
      }
    }
    for (std::size_t i = begin; i < end; ++i) visit(i, leader[i - begin]);
  }
}

}  // namespace

BatchPlan optimize_batch(std::span<const BatchRequest> requests,
                         const BatchOptimizerOptions& options) {
  Timer timer;
  BatchPlan plan;
  // One bin per distinct key, in order of first arrival; linear scan — a
  // tick holds a handful of distinct param sets, not thousands.
  std::vector<BinBuild> builds;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const BatchRequest& request = requests[r];
    const BatchKey key = request.params.batch_key();
    auto target = std::find_if(builds.begin(), builds.end(), [&](const BinBuild& build) {
      return build.bin.params.batch_key() == key;
    });
    if (target == builds.end()) {
      target = builds.emplace(builds.end());
      target->bin.params = request.params;
    }
    target->bin.slices.push_back({target->merged.size(), request.queries.size()});
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
