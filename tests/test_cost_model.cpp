#include "rtnn/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/error.hpp"

#include "core/rng.hpp"
#include "datasets/uniform.hpp"

namespace rtnn {
namespace {

// Builds a synthetic PartitionSet with the paper's empirical structure:
// AABB width ascending, query count descending (Figure 16).
PartitionSet synthetic_partitions(const std::vector<std::pair<float, std::size_t>>& spec,
                                  std::uint32_t k) {
  PartitionSet set;
  set.cell_size = 0.01f;
  std::uint32_t next_query = 0;
  for (const auto& [width, count] : spec) {
    Partition p;
    p.megacell_width = width;
    p.aabb_width = width * 1.24f;
    p.density = static_cast<double>(k) / (static_cast<double>(width) * width * width);
    p.query_ids.resize(count);
    std::iota(p.query_ids.begin(), p.query_ids.end(), next_query);
    next_query += static_cast<std::uint32_t>(count);
    set.partitions.push_back(std::move(p));
  }
  return set;
}

SearchParams knn_params(float r, std::uint32_t k) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = r;
  params.k = k;
  return params;
}

TEST(CostModel, UnbundledPlanHasOneBundlePerPartition) {
  const auto set = synthetic_partitions({{0.1f, 1000}, {0.2f, 100}, {0.4f, 10}}, 8);
  const auto plan = unbundled_plan(set, knn_params(1.0f, 8));
  EXPECT_EQ(plan.bundles.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.bundles[i].partition_indices.size(), 1u);
    EXPECT_FLOAT_EQ(plan.bundles[i].aabb_width, set.partitions[i].aabb_width);
  }
}

TEST(CostModel, BundlesCoverAllPartitionsExactlyOnce) {
  const auto set = synthetic_partitions(
      {{0.1f, 5000}, {0.15f, 800}, {0.2f, 300}, {0.3f, 40}, {0.5f, 5}}, 8);
  CostModel model;
  const auto plan = plan_bundles(set, 100000, knn_params(1.0f, 8), model);
  std::vector<int> seen(set.partitions.size(), 0);
  for (const auto& b : plan.bundles) {
    for (const auto pi : b.partition_indices) ++seen[pi];
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(CostModel, MergedBundleUsesMaxWidth) {
  const auto set = synthetic_partitions({{0.1f, 1000}, {0.2f, 100}, {0.4f, 10}}, 8);
  CostModel model;
  // Make builds extremely expensive so everything merges into one bundle.
  model.k1 = 1.0;
  model.k2 = 1e-12;
  const auto plan = plan_bundles(set, 100000, knn_params(1.0f, 8), model);
  ASSERT_EQ(plan.bundles.size(), 1u);
  EXPECT_FLOAT_EQ(plan.bundles[0].aabb_width, set.partitions[2].aabb_width);
  EXPECT_EQ(plan.bundles[0].query_count, 1110u);
}

TEST(CostModel, CheapBuildsKeepPartitionsSeparate) {
  const auto set = synthetic_partitions({{0.1f, 1000}, {0.2f, 100}, {0.4f, 10}}, 8);
  CostModel model;
  model.k1 = 1e-15;  // builds are free → bundling can only hurt search
  model.k2 = 1.0;
  const auto plan = plan_bundles(set, 100000, knn_params(1.0f, 8), model);
  EXPECT_EQ(plan.bundles.size(), set.partitions.size());
}

TEST(CostModel, PlanIsOptimalAmongTheoremFamily) {
  // plan_bundles must pick the minimum-cost member of the theorem family
  // {merge the (M - Mo + 1) least-populous partitions}, for every Mo, and
  // theorem_plan must build each member bundle for bundle.
  const auto set = synthetic_partitions(
      {{0.08f, 20000}, {0.12f, 4000}, {0.2f, 700}, {0.35f, 90}, {0.6f, 8}}, 16);
  CostModel model;  // defaults
  const SearchParams params = knn_params(2.0f, 16);
  const std::size_t n_points = 500000;
  const auto plan = plan_bundles(set, n_points, params, model);
  const double chosen = predict_cost(plan, set, n_points, params, model);

  // Enumerate the family directly.
  std::vector<std::uint32_t> by_count(set.partitions.size());
  std::iota(by_count.begin(), by_count.end(), 0u);
  std::sort(by_count.begin(), by_count.end(), [&](std::uint32_t a, std::uint32_t b) {
    return set.partitions[a].query_ids.size() < set.partitions[b].query_ids.size();
  });
  for (std::uint32_t mo = 1; mo <= set.partitions.size(); ++mo) {
    SCOPED_TRACE(mo);
    BundlePlan candidate;
    const std::size_t merged = set.partitions.size() - mo + 1;
    Bundle big;
    for (std::size_t i = 0; i < merged; ++i) {
      big.partition_indices.push_back(by_count[i]);
      big.aabb_width = std::max(big.aabb_width, set.partitions[by_count[i]].aabb_width);
      big.query_count += set.partitions[by_count[i]].query_ids.size();
    }
    candidate.bundles.push_back(big);
    for (std::size_t i = merged; i < set.partitions.size(); ++i) {
      Bundle solo;
      solo.partition_indices.push_back(by_count[i]);
      solo.aabb_width = set.partitions[by_count[i]].aabb_width;
      solo.query_count = set.partitions[by_count[i]].query_ids.size();
      candidate.bundles.push_back(solo);
    }
    EXPECT_LE(chosen,
              predict_cost(candidate, set, n_points, params, model) * (1.0 + 1e-12));

    const BundlePlan theorem = theorem_plan(set, mo, params);
    ASSERT_EQ(theorem.bundles.size(), candidate.bundles.size());
    for (std::size_t b = 0; b < candidate.bundles.size(); ++b) {
      const Bundle& got = theorem.bundles[b];
      const Bundle& want = candidate.bundles[b];
      EXPECT_EQ(got.partition_indices, want.partition_indices) << "bundle " << b;
      EXPECT_EQ(got.aabb_width, want.aabb_width) << "bundle " << b;
      EXPECT_EQ(got.query_count, want.query_count) << "bundle " << b;
      EXPECT_EQ(got.skip_sphere_test, want.skip_sphere_test) << "bundle " << b;
    }
  }
}

TEST(CostModel, BundlingNeverWorseThanExtremesUnderModel) {
  // The chosen plan costs no more than both "one bundle" and "no bundling".
  const auto set = synthetic_partitions(
      {{0.05f, 50000}, {0.1f, 9000}, {0.18f, 1200}, {0.3f, 150}, {0.55f, 12}}, 8);
  CostModel model;
  const SearchParams params = knn_params(1.5f, 8);
  const auto plan = plan_bundles(set, 1000000, params, model);
  const double chosen = predict_cost(plan, set, 1000000, params, model);
  const auto none = unbundled_plan(set, params);
  EXPECT_LE(chosen, predict_cost(none, set, 1000000, params, model) * (1 + 1e-12));
}

TEST(CostModel, RangeCostUsesFastPathWhenContained) {
  // Two identical partitions except width: the one whose width fits inside
  // the sphere (w·√3/2 ≤ r) must predict a cheaper search.
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = 1.0f;
  params.k = 8;
  const auto narrow = synthetic_partitions({{0.5f, 1000}}, 8);   // w=0.62, fits
  const auto wide = synthetic_partitions({{1.55f, 1000}}, 8);    // w=1.92, pokes out
  CostModel model;
  const auto plan_narrow = unbundled_plan(narrow, params);
  const auto plan_wide = unbundled_plan(wide, params);
  EXPECT_LT(predict_cost(plan_narrow, narrow, 1000, params, model),
            predict_cost(plan_wide, wide, 1000, params, model));
}

TEST(CostModel, CalibrationProducesSaneRatios) {
  const auto points = data::uniform_box(50'000, {{0, 0, 0}, {1, 1, 1}}, 21);
  const CostModel model = CostModel::calibrate(points, 0.05f, 8);
  EXPECT_GT(model.k1, 0.0);
  EXPECT_GT(model.k2, 0.0);
  EXPECT_GT(model.k3_slow, 0.0);
  EXPECT_GT(model.k3_fast, 0.0);
  // The paper's qualitative relation — eliding the sphere test is not
  // dearer than performing it. Wide tolerance: this is a wall-clock
  // measurement and the suite runs under parallel ctest load.
  EXPECT_LE(model.k3_fast, model.k3_slow * 5.0);
}

TEST(CostModel, CalibrationRejectsTinySamples) {
  const auto points = data::uniform_box(10, {{0, 0, 0}, {1, 1, 1}}, 22);
  EXPECT_THROW(CostModel::calibrate(points, 0.05f, 8), Error);
}

}  // namespace
}  // namespace rtnn
