#include "rtnn/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.hpp"
#include "core/flat_knn.hpp"
#include "core/neighbor_result.hpp"
#include "core/timing.hpp"
#include "rtnn/pipelines.hpp"

namespace rtnn {

namespace {

constexpr float kSqrt3 = 1.7320508f;

// Search cost of a set of partitions sharing one BVH of width `width`.
double bundle_search_cost(std::span<const std::uint32_t> members, const PartitionSet& set,
                          float width, const SearchParams& params, const CostModel& model) {
  if (params.mode == SearchMode::kKnn) {
    // k2 · Σ(N_j ρ_j) · S³  (paper eq. 5's left-hand side)
    double nrho = 0.0;
    for (const std::uint32_t i : members) {
      const Partition& p = set.partitions[i];
      nrho += static_cast<double>(p.query_ids.size()) * p.density;
    }
    const double s = static_cast<double>(width);
    return model.k2 * nrho * s * s * s;
  }
  // Range: k3 · N · K, with the cheap k3 only if the merged width still
  // guarantees containment in the sphere.
  const bool skip = (width * kSqrt3 * 0.5f) <= params.radius;
  const double k3 = skip ? model.k3_fast : model.k3_slow;
  std::uint64_t n = 0;
  for (const std::uint32_t i : members) n += set.partitions[i].query_ids.size();
  return k3 * static_cast<double>(n) * static_cast<double>(params.k);
}

Bundle make_bundle(std::span<const std::uint32_t> members, const PartitionSet& set,
                   const SearchParams& params) {
  Bundle b;
  b.partition_indices.assign(members.begin(), members.end());
  for (const std::uint32_t i : members) {
    const Partition& p = set.partitions[i];
    b.aabb_width = std::max(b.aabb_width, p.aabb_width);
    b.query_count += p.query_ids.size();
  }
  b.skip_sphere_test = (params.mode == SearchMode::kRange) &&
                       (b.aabb_width * kSqrt3 * 0.5f) <= params.radius;
  return b;
}

}  // namespace

IndexUpdate choose_index_update(const CostModel& model, double sah_inflation) {
  if (model.k_refit >= model.k1) return IndexUpdate::kRebuild;
  if (sah_inflation > model.max_sah_inflation) return IndexUpdate::kRebuild;
  return IndexUpdate::kRefit;
}

BundlePlan unbundled_plan(const PartitionSet& set, const SearchParams& params) {
  BundlePlan plan;
  plan.m_opt = static_cast<std::uint32_t>(set.partitions.size());
  for (std::uint32_t i = 0; i < set.partitions.size(); ++i) {
    const std::uint32_t members[] = {i};
    plan.bundles.push_back(make_bundle(members, set, params));
  }
  return plan;
}

double predict_cost(const BundlePlan& plan, const PartitionSet& set, std::size_t n_points,
                    const SearchParams& params, const CostModel& model) {
  double cost = 0.0;
  for (const Bundle& b : plan.bundles) {
    cost += model.k1 * static_cast<double>(n_points);  // T_build = k1 · M
    cost += bundle_search_cost(b.partition_indices, set, b.aabb_width, params, model);
  }
  return cost;
}

BundlePlan plan_bundles(const PartitionSet& set, std::size_t n_points,
                        const SearchParams& params, const CostModel& model) {
  const std::size_t m = set.partitions.size();
  if (m <= 1) {
    BundlePlan plan = unbundled_plan(set, params);
    plan.predicted_seconds = predict_cost(plan, set, n_points, params, model);
    return plan;
  }

  // Partitions in ascending query-count order (Supp. C).
  std::vector<std::uint32_t> by_count(m);
  std::iota(by_count.begin(), by_count.end(), 0u);
  std::stable_sort(by_count.begin(), by_count.end(), [&](std::uint32_t a, std::uint32_t b) {
    return set.partitions[a].query_ids.size() < set.partitions[b].query_ids.size();
  });

  // For each M_o: merge the (m - M_o + 1) least-populous partitions,
  // keep the (M_o - 1) most-populous separate.
  BundlePlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::uint32_t m_opt = 1; m_opt <= m; ++m_opt) {
    const std::size_t merged_count = m - m_opt + 1;
    BundlePlan plan;
    plan.m_opt = m_opt;
    plan.bundles.push_back(
        make_bundle(std::span<const std::uint32_t>(by_count.data(), merged_count), set,
                    params));
    for (std::size_t i = merged_count; i < m; ++i) {
      const std::uint32_t members[] = {by_count[i]};
      plan.bundles.push_back(make_bundle(members, set, params));
    }
    const double cost = predict_cost(plan, set, n_points, params, model);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(plan);
    }
  }
  best.predicted_seconds = best_cost;
  return best;
}

CostModel CostModel::calibrate(std::span<const Vec3> sample_points, float radius,
                               std::uint32_t k) {
  RTNN_CHECK(sample_points.size() >= 1000, "calibration sample too small");
  RTNN_CHECK(radius > 0.0f, "radius must be positive");
  CostModel model;

  // --- k1: BVH build seconds per AABB ---
  std::vector<Aabb> aabbs(sample_points.size());
  for (std::size_t i = 0; i < sample_points.size(); ++i) {
    aabbs[i] = Aabb::cube(sample_points[i], 2.0f * radius);
  }
  const ox::Context ctx;
  Timer build_timer;
  ox::Accel accel = ctx.build_accel(aabbs);
  const double t_build = build_timer.elapsed();
  model.k1 = t_build / static_cast<double>(sample_points.size());

  // --- k_refit: in-place accel update per AABB. Motion-independent (the
  // sweep touches every node either way), so refitting with the same
  // positions measures it faithfully — through the point-cloud fast path
  // the per-frame lifecycle actually uses.
  {
    Timer refit_timer;
    accel.refit(sample_points, 2.0f * radius);
    model.k_refit = refit_timer.elapsed() / static_cast<double>(sample_points.size());
  }

  // Queries = the sample points themselves (self-neighborhoods, the
  // common workload shape).
  const std::size_t nq = std::min<std::size_t>(sample_points.size(), 100'000);
  const std::span<const Vec3> queries = sample_points.subspan(0, nq);

  // The production shaders, over identity launch ids.
  std::vector<std::uint32_t> ids(nq);
  std::iota(ids.begin(), ids.end(), 0u);

  // --- k2: KNN IS call. The pipeline is built without a width, so its
  // walk is unculled: k2 stays seconds per IS call of the full traversal,
  // which is what the ρS³ IS-count term of the model predicts.
  {
    FlatKnnHeaps heaps(nq, k);
    pipelines::KnnPipeline pipeline(sample_points, queries, ids, radius, heaps);
    Timer timer;
    const auto stats = ox::launch(accel, pipeline, static_cast<std::uint32_t>(nq));
    const double t = timer.elapsed();
    if (stats.is_calls > 0) model.k2 = t / static_cast<double>(stats.is_calls);
  }

  // --- k3: range IS call, with and without the sphere test ---
  for (const bool skip : {false, true}) {
    NeighborResult result(nq, k, /*store_indices=*/false);
    pipelines::RangePipeline pipeline(sample_points, queries, ids, radius, k, skip, result);
    Timer timer;
    const auto stats = ox::launch(accel, pipeline, static_cast<std::uint32_t>(nq));
    const double t = timer.elapsed();
    if (stats.is_calls > 0) {
      const double per_call = t / static_cast<double>(stats.is_calls);
      (skip ? model.k3_fast : model.k3_slow) = per_call;
    }
  }

  return model;
}

}  // namespace rtnn
