#include "rtnn/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "datasets/point_cloud.hpp"
#include "rtnn/neighbor_search.hpp"
#include "test_util.hpp"

namespace rtnn {
namespace {

struct SchedulerFixture : ::testing::Test {
  void SetUp() override {
    points = testing::make_cloud(testing::CloudKind::kUniform, 5000, 1);
    queries = data::jittered_queries(points, 2000, 0.01f, 2);
    data::shuffle(queries, 3);  // deliberately incoherent input order
  }

  /// The fixture's queries plus NaN, ±Inf and far out-of-scene rows.
  std::vector<Vec3> hostile_queries() const {
    constexpr float nan = std::numeric_limits<float>::quiet_NaN();
    constexpr float inf = std::numeric_limits<float>::infinity();
    std::vector<Vec3> mixed = queries;
    for (int i = 0; i < 50; ++i) {
      mixed.push_back(Vec3{100.0f + static_cast<float>(i), 0.0f, 0.0f});
    }
    mixed.push_back({nan, 0.5f, 0.5f});
    mixed.push_back({nan, nan, nan});
    mixed.push_back({inf, 0.5f, 0.5f});
    mixed.push_back({-inf, -inf, -inf});
    mixed.push_back({0.5f, inf, nan});
    std::rotate(mixed.begin(), mixed.begin() + 700, mixed.end());
    return mixed;
  }

  std::vector<Vec3> points;
  std::vector<Vec3> queries;
};

void expect_permutation(const std::vector<std::uint32_t>& order, std::size_t n) {
  ASSERT_EQ(order.size(), n);
  std::vector<std::uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], static_cast<std::uint32_t>(i));
  }
}

TEST_F(SchedulerFixture, OrderIsAPermutation) {
  expect_permutation(schedule_queries(queries).order, queries.size());
}

TEST_F(SchedulerFixture, ScheduledOrderIsSpatiallyCoherent) {
  // The point of section 4: adjacent rays should be spatially close.
  const ScheduleResult sched = schedule_queries(queries);
  auto mean_adjacent_distance = [&](const std::vector<std::uint32_t>& order) {
    double sum = 0.0;
    for (std::size_t i = 1; i < order.size(); ++i) {
      sum += distance(queries[order[i - 1]], queries[order[i]]);
    }
    return sum / static_cast<double>(order.size() - 1);
  };
  std::vector<std::uint32_t> identity(queries.size());
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_LT(mean_adjacent_distance(sched.order),
            0.25 * mean_adjacent_distance(identity));
}

TEST_F(SchedulerFixture, OrderIsTheStableSortOfTheMortonKeys) {
  // The one query order: ids stably sorted by morton_keys(), with the
  // sorted keys returned alongside. Duplicated rows tie on their key and
  // must keep input order.
  std::vector<Vec3> dup = queries;
  dup.insert(dup.end(), queries.begin(), queries.begin() + 300);
  for (const std::vector<Vec3>* input : {&queries, &dup}) {
    const std::vector<std::uint64_t> keys = morton_keys(*input);
    std::vector<std::uint32_t> expected(input->size());
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
    const ScheduleResult sched = schedule_queries(*input);
    EXPECT_EQ(sched.order, expected);
    ASSERT_EQ(sched.keys.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(sched.keys[i], keys[expected[i]]) << "slot " << i;
    }
  }
}

TEST_F(SchedulerFixture, KeysSpanTheQueriesOwnBounds) {
  // The frame is the queries' own bounds: the lowest corner codes 0 and
  // the highest corner codes all ones, whatever the point cloud.
  std::vector<Vec3> box = queries;
  box.push_back({-1.0f, -1.0f, -1.0f});
  box.push_back({2.0f, 2.0f, 2.0f});
  const std::vector<std::uint64_t> keys = morton_keys(box);
  EXPECT_EQ(keys[box.size() - 2], 0u);
  EXPECT_EQ(keys[box.size() - 1], (std::uint64_t{1} << 63) - 1);
  // Coincident rows always share a key (the batch optimizer's dedup
  // relies on it), ±0 included.
  const std::vector<std::uint64_t> zeros = morton_keys(std::vector<Vec3>{
      {0.0f, 0.0f, 0.0f}, {1.0f, 1.0f, 1.0f}, {-0.0f, 0.0f, -0.0f}});
  EXPECT_EQ(zeros[0], zeros[2]);
}

TEST_F(SchedulerFixture, HostileQueriesStillScheduled) {
  // NaN, ±Inf and far out-of-scene rows still appear exactly once, and
  // the non-finite ones do not move the finite rows' keys.
  const std::vector<Vec3> mixed = hostile_queries();
  expect_permutation(schedule_queries(mixed).order, mixed.size());

  std::vector<Vec3> finite;
  std::vector<std::uint64_t> finite_keys_in_mixed;
  const std::vector<std::uint64_t> mixed_keys = morton_keys(mixed);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    if (!is_finite(mixed[i])) continue;
    finite.push_back(mixed[i]);
    finite_keys_in_mixed.push_back(mixed_keys[i]);
  }
  EXPECT_EQ(morton_keys(finite), finite_keys_in_mixed);

  // Finite extremes overflow the frame's extent to infinity; the order
  // is still a permutation.
  std::vector<Vec3> extreme = mixed;
  extreme.push_back({-3e38f, 0.5f, 3e38f});
  extreme.push_back({3e38f, -3e38f, 0.0f});
  expect_permutation(schedule_queries(extreme).order, extreme.size());
}

TEST_F(SchedulerFixture, SchedulingChangesNoRowOnHostileQueries) {
  // A ray's walk does not depend on launch order, so scheduling_only()
  // and none() launch the same rays against the same tree and must
  // answer byte-identical rows, range and KNN alike.
  const std::vector<Vec3> mixed = hostile_queries();
  NeighborSearch search;
  search.set_points(points);
  for (const SearchMode mode : {SearchMode::kRange, SearchMode::kKnn}) {
    SCOPED_TRACE(mode == SearchMode::kKnn ? "knn" : "range");
    SearchParams params;
    params.mode = mode;
    params.radius = 0.05f;
    params.k = 12;
    params.opts = OptimizationFlags::none();
    const NeighborResult unscheduled = search.search(mixed, params);
    params.opts = OptimizationFlags::scheduling_only();
    NeighborSearch::Report report;
    const NeighborResult scheduled = search.search(mixed, params, &report);
    testing::expect_knn_identical(scheduled, unscheduled, "scheduled");
    for (std::size_t q = 0; q < mixed.size(); ++q) {
      if (!is_finite(mixed[q])) EXPECT_EQ(scheduled.count(q), 0u) << "row " << q;
    }
    EXPECT_EQ(report.first_hit_stats.rays, 0u);
    EXPECT_EQ(report.time.first_search, 0.0);
  }
}

TEST_F(SchedulerFixture, DeterministicAcrossRuns) {
  const ScheduleResult a = schedule_queries(queries);
  const ScheduleResult b = schedule_queries(queries);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.keys, b.keys);
}

TEST_F(SchedulerFixture, EmptyQuerySet) {
  const ScheduleResult sched = schedule_queries({});
  EXPECT_TRUE(sched.order.empty());
  EXPECT_TRUE(sched.keys.empty());
}

}  // namespace
}  // namespace rtnn
