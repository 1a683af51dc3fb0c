// The coherence-aware batch optimizer (rtnn/batch_optimizer.hpp):
// batch_key() as the one definition of "batchable", key-homogeneous
// binning with per-bin caps, Morton reorder as a pure permutation,
// coincident dedup under the bitwise exactness guard, and the
// permutation-aware split_batch_result scatter — including its
// empty-request / zero-query / single-request edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "rtnn/batch_optimizer.hpp"
#include "rtnn/neighbor_search.hpp"
#include "test_util.hpp"

using namespace rtnn;
using rtnn::testing::CloudKind;
using rtnn::testing::make_cloud;
using rtnn::testing::typical_radius;

namespace {

constexpr std::uint64_t kSeed = 417;

SearchParams knn_params(float radius, std::uint32_t k = 8) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = radius;
  params.k = k;
  params.opts = OptimizationFlags::none();
  return params;
}

/// rep_rows restricted to representatives must hit every result row; a
/// no-dedup bin must be a plain permutation of [0, n).
void expect_valid_rep_map(const BatchBin& bin) {
  ASSERT_EQ(bin.rep_rows.size(), bin.merged_queries);
  ASSERT_EQ(bin.queries.size(), bin.merged_queries - bin.deduped);
  std::vector<bool> hit(bin.queries.size(), false);
  for (const std::uint32_t rep : bin.rep_rows) {
    ASSERT_LT(rep, bin.queries.size());
    hit[rep] = true;
  }
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool h) { return h; }))
      << "every representative must answer at least one merged row";
}

/// Scatters the bin through a real search and checks each member request
/// against its solo search — the optimizer's exactness contract.
void expect_bin_exact(const BatchBin& bin, std::span<const BatchRequest> requests,
                      const std::vector<Vec3>& cloud) {
  NeighborSearch search;
  search.set_points(cloud);
  const NeighborResult rep_result = search.search(bin.queries, bin.params);
  const std::vector<NeighborResult> parts = bin.scatter(rep_result);
  ASSERT_EQ(parts.size(), bin.request_ids.size());
  for (std::size_t i = 0; i < bin.request_ids.size(); ++i) {
    const BatchRequest& request = requests[bin.request_ids[i]];
    NeighborSearch solo;
    solo.set_points(cloud);
    const NeighborResult expected = solo.search(request.queries, request.params);
    rtnn::testing::expect_knn_identical(parts[i], expected,
                                        "request " + std::to_string(bin.request_ids[i]));
  }
}

}  // namespace

// --- SearchParams::batch_key -------------------------------------------------

TEST(BatchKey, AnswerShapingFieldsSeparate) {
  const SearchParams base = knn_params(0.1f);
  EXPECT_TRUE(base.batch_key() == base.batch_key());

  auto differs = [&](auto&& mutate) {
    SearchParams other = base;
    mutate(other);
    return !(other.batch_key() == base.batch_key());
  };
  EXPECT_TRUE(differs([](SearchParams& p) { p.mode = SearchMode::kRange; }));
  EXPECT_TRUE(differs([](SearchParams& p) { p.radius *= 2.0f; }));
  EXPECT_TRUE(differs([](SearchParams& p) { p.k += 1; }));
  EXPECT_TRUE(differs([](SearchParams& p) { p.store_indices = false; }));
  EXPECT_TRUE(differs([](SearchParams& p) { p.aabb_scale = 0.5f; }));
  SearchParams elide = base;
  elide.mode = SearchMode::kRange;
  SearchParams elide_on = elide;
  elide_on.elide_sphere_test = true;
  EXPECT_FALSE(elide.batch_key() == elide_on.batch_key());
}

TEST(BatchKey, PipelineShapingFieldsDoNot) {
  const SearchParams base = knn_params(0.1f);
  auto same = [&](auto&& mutate) {
    SearchParams other = base;
    mutate(other);
    return other.batch_key() == base.batch_key();
  };
  // Exactness-preserving knobs must not split a bin: they change how the
  // pipeline runs, never what it returns.
  EXPECT_TRUE(same([](SearchParams& p) { p.opts = OptimizationFlags::all(); }));
  EXPECT_TRUE(same([](SearchParams& p) { p.opts = OptimizationFlags::scheduling_only(); }));
  EXPECT_TRUE(same([](SearchParams& p) { p.max_grid_cells = 512; }));
}

// --- Binning -----------------------------------------------------------------

TEST(BatchOptimizer, BinsByKeyInFirstArrivalOrder) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 600, kSeed);
  const SearchParams near = knn_params(typical_radius(CloudKind::kUniform));
  SearchParams far = near;
  far.radius *= 2.0f;
  SearchParams near_pipelined = near;  // same key as `near`
  near_pipelined.opts = OptimizationFlags::all();

  const std::vector<BatchRequest> requests{
      {std::span<const Vec3>(cloud.data(), 10), near},
      {std::span<const Vec3>(cloud.data() + 50, 20), far},
      {std::span<const Vec3>(cloud.data() + 100, 30), near_pipelined},
      {std::span<const Vec3>(cloud.data() + 200, 5), far},
  };
  const BatchPlan plan = optimize_batch(requests);
  ASSERT_EQ(plan.bins.size(), 2u);  // two distinct keys, not four groups
  EXPECT_EQ(plan.bins[0].request_ids, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(plan.bins[1].request_ids, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(plan.bins[0].merged_queries, 40u);
  EXPECT_EQ(plan.bins[1].merged_queries, 25u);
  // The bin adopts the first member's params (key fields are shared).
  EXPECT_FLOAT_EQ(plan.bins[1].params.radius, far.radius);
  // Slices address the merged bin rows contiguously in member order.
  EXPECT_EQ(plan.bins[0].slices[0].first, 0u);
  EXPECT_EQ(plan.bins[0].slices[1].first, 10u);
  EXPECT_EQ(plan.bins[0].slices[1].count, 30u);
}

TEST(BatchOptimizer, PerBinCapOpensAFreshBin) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 200, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  std::vector<BatchRequest> requests;
  for (int r = 0; r < 3; ++r) {
    requests.push_back({std::span<const Vec3>(cloud.data() + 40 * r, 15), params});
  }
  // An oversized request still gets a bin of its own rather than splitting.
  requests.push_back({std::span<const Vec3>(cloud.data(), 50), params});

  BatchOptimizerOptions options;
  options.max_bin_queries = 20;
  const BatchPlan plan = optimize_batch(requests, options);
  ASSERT_EQ(plan.bins.size(), 4u);
  EXPECT_EQ(plan.bins[0].merged_queries, 15u);
  EXPECT_EQ(plan.bins[1].merged_queries, 15u);
  EXPECT_EQ(plan.bins[2].merged_queries, 15u);
  EXPECT_EQ(plan.bins[3].merged_queries, 50u);
}

TEST(BatchOptimizer, ZeroCapMeansUnbounded) {
  // max_bin_queries = 0 is the documented "unbounded" contract (shared by
  // BatchOptimizerOptions and CloudConfig, whichever batch_reorder says):
  // no bin ever closes early, however many rows pile onto one key.
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 800, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  std::vector<BatchRequest> requests;
  std::size_t total_rows = 0;
  for (int r = 0; r < 16; ++r) {
    const std::size_t size = 30 + static_cast<std::size_t>(r);
    requests.push_back({std::span<const Vec3>(cloud.data() + 20 * r, size), params});
    total_rows += size;
  }

  BatchOptimizerOptions options;
  options.max_bin_queries = 0;
  const BatchPlan plan = optimize_batch(requests, options);
  ASSERT_EQ(plan.bins.size(), 1u);  // one key, one bin — never split
  EXPECT_EQ(plan.bins[0].merged_queries, total_rows);
  EXPECT_EQ(plan.bins[0].request_ids.size(), requests.size());
  expect_valid_rep_map(plan.bins[0]);

  // Sanity: the same stream under a finite cap does split, so the zero
  // really is the unbounded sentinel and not a tiny cap.
  options.max_bin_queries = 64;
  EXPECT_GT(optimize_batch(requests, options).bins.size(), 1u);
}

// --- Reorder -----------------------------------------------------------------

TEST(BatchOptimizer, ReorderIsAPermutationAndStaysExact) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 800, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  // Disjoint windows: no coincident rows, so dedup must find nothing and
  // the reorder is a pure permutation.
  const std::vector<BatchRequest> requests{
      {std::span<const Vec3>(cloud.data(), 40), params},
      {std::span<const Vec3>(cloud.data() + 300, 25), params},
      {std::span<const Vec3>(cloud.data() + 600, 33), params},
  };
  const BatchPlan plan = optimize_batch(requests);
  ASSERT_EQ(plan.bins.size(), 1u);
  const BatchBin& bin = plan.bins[0];
  EXPECT_EQ(bin.deduped, 0u);
  EXPECT_EQ(plan.deduped, 0u);
  expect_valid_rep_map(bin);
  // A permutation: every result row answers exactly one merged row.
  std::vector<std::uint32_t> sorted = bin.rep_rows;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> iota(bin.merged_queries);
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT_EQ(sorted, iota);
  expect_bin_exact(bin, requests, cloud);
}

TEST(BatchOptimizer, ReorderOffKeepsArrivalOrder) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 300, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  const std::vector<BatchRequest> requests{
      {std::span<const Vec3>(cloud.data(), 12), params},
      {std::span<const Vec3>(cloud.data() + 100, 7), params},
  };
  BatchOptimizerOptions options;
  options.reorder = false;
  const BatchPlan plan = optimize_batch(requests, options);
  ASSERT_EQ(plan.bins.size(), 1u);
  const BatchBin& bin = plan.bins[0];
  // Identity mapping: arrival-order concatenation untouched.
  for (std::size_t row = 0; row < bin.merged_queries; ++row) {
    EXPECT_EQ(bin.rep_rows[row], row);
  }
  EXPECT_EQ(bin.queries[0].x, cloud[0].x);
  EXPECT_EQ(bin.queries[12].x, cloud[100].x);
}

// --- Dedup -------------------------------------------------------------------

TEST(BatchOptimizer, DedupsCoincidentRowsAcrossRequests) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 400, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  // Overlapping windows of one cloud: rows [20, 50) are submitted twice,
  // bitwise-identically; plus one request that is an exact copy of another.
  const std::vector<BatchRequest> requests{
      {std::span<const Vec3>(cloud.data(), 50), params},
      {std::span<const Vec3>(cloud.data() + 20, 50), params},
      {std::span<const Vec3>(cloud.data(), 50), params},
  };
  const BatchPlan plan = optimize_batch(requests);
  ASSERT_EQ(plan.bins.size(), 1u);
  const BatchBin& bin = plan.bins[0];
  EXPECT_EQ(bin.merged_queries, 150u);
  // 70 distinct rows ([0, 70)); the other 80 alias a representative.
  EXPECT_EQ(bin.queries.size(), 70u);
  EXPECT_EQ(bin.deduped, 80u);
  expect_valid_rep_map(bin);
  expect_bin_exact(bin, requests, cloud);
}

TEST(BatchOptimizer, NearButNotCoincidentRowsAreNotDeduped) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 200, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  // Jitter far below the dedup cell width (r): same cell, different bits
  // — the exactness guard must keep every row its own representative.
  std::vector<Vec3> jittered(cloud.begin(), cloud.begin() + 30);
  for (Vec3& p : jittered) p.x += 1e-6f;
  const std::vector<BatchRequest> requests{
      {std::span<const Vec3>(cloud.data(), 30), params},
      {jittered, params},
  };
  const BatchPlan plan = optimize_batch(requests);
  ASSERT_EQ(plan.bins.size(), 1u);
  EXPECT_EQ(plan.bins[0].deduped, 0u);
  EXPECT_EQ(plan.bins[0].queries.size(), 60u);
  expect_bin_exact(plan.bins[0], requests, cloud);
}

TEST(BatchOptimizer, AllRowsCoincidentCollapseToOneRepresentative) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 100, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  const std::vector<Vec3> same(64, cloud[7]);
  const std::vector<BatchRequest> requests{{same, params}, {same, params}};
  const BatchPlan plan = optimize_batch(requests);
  ASSERT_EQ(plan.bins.size(), 1u);
  EXPECT_EQ(plan.bins[0].queries.size(), 1u);
  EXPECT_EQ(plan.bins[0].deduped, 127u);
  expect_bin_exact(plan.bins[0], requests, cloud);
}

// --- Edge cases --------------------------------------------------------------

TEST(BatchOptimizer, EmptyInputAndZeroRowRequests) {
  EXPECT_TRUE(optimize_batch({}).bins.empty());

  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 100, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  const std::vector<BatchRequest> requests{
      {std::span<const Vec3>{}, params},
      {std::span<const Vec3>(cloud.data(), 9), params},
  };
  const BatchPlan plan = optimize_batch(requests);
  ASSERT_EQ(plan.bins.size(), 1u);
  const BatchBin& bin = plan.bins[0];
  ASSERT_EQ(bin.slices.size(), 2u);
  EXPECT_EQ(bin.slices[0].count, 0u);
  EXPECT_EQ(bin.merged_queries, 9u);

  NeighborSearch search;
  search.set_points(cloud);
  const NeighborResult rep_result = search.search(bin.queries, bin.params);
  const std::vector<NeighborResult> parts = bin.scatter(rep_result);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].num_queries(), 0u);  // the empty request's empty result
  EXPECT_EQ(parts[1].num_queries(), 9u);
}

// --- split_batch_result edges (identity and row-mapped) ----------------------

TEST(SplitBatchResult, SingleRequestBatchIsTheWholeResult) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 300, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  NeighborSearch search;
  search.set_points(cloud);
  const std::span<const Vec3> queries(cloud.data(), 24);
  const NeighborResult batch = search.search(queries, params);
  const std::vector<BatchSlice> slices{{0, 24}};
  const auto parts = split_batch_result(batch, slices);
  ASSERT_EQ(parts.size(), 1u);
  rtnn::testing::expect_knn_identical(parts[0], batch, "single");
}

TEST(SplitBatchResult, ZeroQuerySlices) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 300, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  NeighborSearch search;
  search.set_points(cloud);
  const NeighborResult batch = search.search(std::span<const Vec3>(cloud.data(), 8), params);
  // An empty batch slice set, a zero-count slice, and a trailing empty
  // request all produce well-formed (empty) results.
  EXPECT_TRUE(split_batch_result(batch, {}).empty());
  const std::vector<BatchSlice> slices{{0, 0}, {0, 8}, {8, 0}};
  const auto parts = split_batch_result(batch, slices);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].num_queries(), 0u);
  EXPECT_EQ(parts[1].num_queries(), 8u);
  EXPECT_EQ(parts[2].num_queries(), 0u);
}

TEST(SplitBatchResult, RowMappedFanOut) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 300, kSeed);
  const SearchParams params = knn_params(typical_radius(CloudKind::kUniform));
  NeighborSearch search;
  search.set_points(cloud);
  const NeighborResult batch = search.search(std::span<const Vec3>(cloud.data(), 4), params);
  // Six merged rows answered by four result rows: rows 1 and 4 alias
  // representatives 2 and 0 (the dedup fan-out shape).
  const std::vector<std::uint32_t> rows{0, 2, 1, 2, 0, 3};
  const std::vector<BatchSlice> slices{{0, 3}, {3, 3}};
  const auto parts = split_batch_result(batch, slices, rows);
  ASSERT_EQ(parts.size(), 2u);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    for (std::size_t q = 0; q < slices[i].count; ++q) {
      const std::size_t row = rows[slices[i].first + q];
      ASSERT_EQ(parts[i].count(q), batch.count(row));
      const auto got = parts[i].neighbors(q);
      const auto want = batch.neighbors(row);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
    }
  }
}

TEST(SplitBatchResult, RowMapBeyondBatchThrows) {
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 100, kSeed);
  NeighborSearch search;
  search.set_points(cloud);
  const NeighborResult batch =
      search.search(std::span<const Vec3>(cloud.data(), 4),
                    knn_params(typical_radius(CloudKind::kUniform)));
  const std::vector<BatchSlice> slices{{0, 2}};
  EXPECT_THROW(split_batch_result(batch, slices, std::vector<std::uint32_t>{0, 9}), Error);
  EXPECT_THROW(split_batch_result(batch, slices, std::vector<std::uint32_t>{0}), Error);
  // The identity overload: a slice past the batch's last row.
  EXPECT_THROW(split_batch_result(batch, std::vector<BatchSlice>{{2, 3}}), Error);
}
