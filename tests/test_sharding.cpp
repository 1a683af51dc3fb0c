// Spatial sharding: the pure geometry layer (rtnn/sharding.hpp — plan /
// route / gather) and the composed engine::ShardedBackend, checked for
// exact parity against brute force and the unsharded inner backend on
// uniform and degenerate clouds. The exactness arguments these tests pin
// down are stated in sharding.hpp's header comment: counts sum with a
// clamp at K, range unions are disjoint, the global top-K is a subset of
// the union of per-shard top-Ks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/sharded_backend.hpp"
#include "rtnn/sharding.hpp"
#include "test_util.hpp"

using namespace rtnn;
using rtnn::testing::CloudKind;
using rtnn::testing::make_cloud;
using rtnn::testing::typical_radius;

namespace {

constexpr std::uint64_t kSeed = 2917;

SearchParams range_params(float radius, std::uint32_t k) {
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = radius;
  params.k = k;
  return params;
}

SearchParams knn_params(float radius, std::uint32_t k = 8) {
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = radius;
  params.k = k;
  return params;
}

/// The K at which a range result set is unique (no backend-defined
/// truncation): one past the largest true neighbor count.
std::uint32_t unique_range_k(engine::SearchBackend& reference,
                             std::span<const Vec3> queries, float radius,
                             std::size_t num_points) {
  SearchParams params = range_params(radius, static_cast<std::uint32_t>(num_points));
  params.store_indices = false;
  const NeighborResult counts = reference.search(queries, params, nullptr);
  std::uint32_t max_count = 0;
  for (std::size_t q = 0; q < counts.num_queries(); ++q) {
    max_count = std::max(max_count, counts.count(q));
  }
  return max_count + 1;
}

}  // namespace

// --- plan_shard_count --------------------------------------------------------

TEST(ShardPlanning, ShardCountFollowsThresholdAndCap) {
  EXPECT_EQ(plan_shard_count(1000, 0, 16), 1u);     // threshold 0 = never shard
  EXPECT_EQ(plan_shard_count(1000, 1000, 16), 1u);  // at the threshold: whole
  EXPECT_EQ(plan_shard_count(1001, 1000, 16), 2u);  // one past: split
  EXPECT_EQ(plan_shard_count(5000, 1000, 16), 5u);  // ceil(n / threshold)
  EXPECT_EQ(plan_shard_count(5001, 1000, 16), 6u);
  EXPECT_EQ(plan_shard_count(100'000, 1000, 16), 16u);  // capped
}

TEST(ShardPlanning, ZeroCapMeansUnbounded) {
  // max_shards = 0 is the documented "unbounded" contract (shared by
  // CloudConfig, TileOptions and the batch optimizer's max_bin_queries):
  // the split follows ceil(n / threshold) however large the cloud. The
  // old behavior clamped 0 to a cap of 1, silently disabling sharding.
  EXPECT_EQ(plan_shard_count(100'000, 1000, 0), 100u);
  EXPECT_EQ(plan_shard_count(5001, 1000, 0), 6u);
  EXPECT_EQ(plan_shard_count(1000, 1000, 0), 1u);  // under threshold: whole
  EXPECT_EQ(plan_shard_count(1000, 0, 0), 1u);     // threshold 0 still = off
}

// --- plan_shards -------------------------------------------------------------

TEST(ShardPlanning, SingleShardKeepsIdentityOrder) {
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 200, kSeed);
  const ShardPlan plan = plan_shards(points, 1);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.point_count, points.size());
  // Identity ids: a single-shard backend delegates without any remap.
  std::vector<std::uint32_t> iota(points.size());
  std::iota(iota.begin(), iota.end(), 0u);
  EXPECT_EQ(plan.shards[0].point_ids, iota);
  EXPECT_EQ(plan.shards[0].bounds.lo.x, plan.cloud_bounds.lo.x);
  EXPECT_EQ(plan.shards[0].bounds.hi.z, plan.cloud_bounds.hi.z);
}

TEST(ShardPlanning, ShardsPartitionThePoints) {
  const std::vector<Vec3> points = make_cloud(CloudKind::kNBody, 500, kSeed);
  for (const std::uint32_t num_shards : {2u, 5u, 8u}) {
    SCOPED_TRACE(num_shards);
    const ShardPlan plan = plan_shards(points, num_shards);
    ASSERT_EQ(plan.shards.size(), num_shards);

    // Every point id appears in exactly one shard.
    std::vector<int> seen(points.size(), 0);
    for (const ShardPlan::Shard& shard : plan.shards) {
      for (const std::uint32_t id : shard.point_ids) {
        ASSERT_LT(id, points.size());
        ++seen[id];
      }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int c) { return c == 1; }));

    // Near-equal sizes: the split differs by at most one point.
    std::size_t lo = points.size(), hi = 0;
    for (const ShardPlan::Shard& shard : plan.shards) {
      lo = std::min(lo, shard.point_ids.size());
      hi = std::max(hi, shard.point_ids.size());
    }
    EXPECT_LE(hi - lo, 1u);

    // Tight bounds: every member inside its shard box, every box inside
    // the cloud box.
    for (const ShardPlan::Shard& shard : plan.shards) {
      for (const std::uint32_t id : shard.point_ids) {
        EXPECT_TRUE(shard.bounds.contains(points[id]));
      }
      EXPECT_TRUE(plan.cloud_bounds.contains(shard.bounds.lo));
      EXPECT_TRUE(plan.cloud_bounds.contains(shard.bounds.hi));
    }
  }
}

TEST(ShardPlanning, MoreShardsThanPointsClamps) {
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 3, kSeed);
  const ShardPlan plan = plan_shards(points, 16);
  EXPECT_EQ(plan.shards.size(), 3u);  // one point per shard at most
}

// --- aabb_distance2 ----------------------------------------------------------

TEST(ShardRouting, AabbDistanceSquared) {
  Aabb box;
  box.grow({0, 0, 0});
  box.grow({1, 2, 3});
  EXPECT_FLOAT_EQ(aabb_distance2(box, {0.5f, 1.0f, 1.5f}), 0.0f);  // inside
  EXPECT_FLOAT_EQ(aabb_distance2(box, {1.0f, 2.0f, 3.0f}), 0.0f);  // on the corner
  EXPECT_FLOAT_EQ(aabb_distance2(box, {3.0f, 1.0f, 1.0f}), 4.0f);  // one axis out
  EXPECT_FLOAT_EQ(aabb_distance2(box, {2.0f, 3.0f, 1.0f}), 2.0f);  // two axes out
  EXPECT_FLOAT_EQ(aabb_distance2(box, {-1.0f, -1.0f, -1.0f}), 3.0f);
  const Aabb empty;  // default-constructed = inverted bounds
  EXPECT_TRUE(std::isinf(aabb_distance2(empty, {0, 0, 0})));
}

TEST(ShardRouting, RoutesExactlyTheShardsWithinRadius) {
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 400, kSeed);
  const std::vector<Vec3> queries = make_cloud(CloudKind::kUniform, 32, kSeed + 1);
  const float radius = typical_radius(CloudKind::kUniform);
  const ShardPlan plan = plan_shards(points, 4);
  const ShardRoute route = route_queries(plan, queries, radius);
  ASSERT_EQ(route.rows.size(), plan.shards.size());

  std::uint64_t expected_fanout = 0;
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    std::vector<std::uint32_t> expected;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (aabb_distance2(plan.shards[s].bounds, queries[q]) <= radius * radius) {
        expected.push_back(static_cast<std::uint32_t>(q));
      }
    }
    EXPECT_EQ(route.rows[s], expected) << "shard " << s;
    expected_fanout += expected.size();
  }
  EXPECT_EQ(route.fanout, expected_fanout);

  // Conservative: a shard holding a true in-radius neighbor of q must be
  // routed for q (the tight AABB cannot be farther than its contents).
  const float r2 = radius * radius;
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      bool has_neighbor = false;
      for (const std::uint32_t id : plan.shards[s].point_ids) {
        if (distance2(points[id], queries[q]) <= r2) {
          has_neighbor = true;
          break;
        }
      }
      const bool routed = std::binary_search(route.rows[s].begin(), route.rows[s].end(),
                                             static_cast<std::uint32_t>(q));
      if (has_neighbor) EXPECT_TRUE(routed) << "shard " << s << " query " << q;
    }
  }
}

// --- ShardedBackend ----------------------------------------------------------

namespace {

/// A ShardedBackend forced into multiple shards over a small cloud.
engine::ShardedBackend make_sharded(std::span<const Vec3> points,
                                    std::size_t shard_threshold = 64,
                                    std::uint32_t max_shards = 6) {
  engine::ShardingOptions options;
  options.shard_threshold = shard_threshold;
  options.max_shards = max_shards;
  engine::ShardedBackend backend("rtnn", options);
  backend.set_points(points);
  return backend;
}

void expect_sharded_parity(std::span<const Vec3> points, std::span<const Vec3> queries,
                           float radius, const std::string& label) {
  auto reference = engine::make_backend("brute_force");
  reference->set_points(points);

  engine::ShardedBackend sharded = make_sharded(points);
  ASSERT_GT(sharded.shard_count(), 1u) << label;

  // Range with K past every true count: the result set is unique.
  const std::uint32_t k = unique_range_k(*reference, queries, radius, points.size());
  const SearchParams range = range_params(radius, k);
  rtnn::testing::expect_same_neighbor_sets(sharded.search(queries, range),
                                           reference->search(queries, range, nullptr),
                                           label + " range");

  // Counts-only range: per-shard counts sum exactly under the clamp.
  SearchParams counts = range_params(radius, 4);  // truncating K stresses the clamp
  counts.store_indices = false;
  rtnn::testing::expect_counts_equal(sharded.search(queries, counts),
                                     reference->search(queries, counts, nullptr),
                                     label + " counts");

  // KNN: identical rows.
  const SearchParams knn = knn_params(radius);
  rtnn::testing::expect_knn_identical(sharded.search(queries, knn),
                                      reference->search(queries, knn, nullptr), label + " knn");
}

}  // namespace

TEST(ShardedBackend, MatchesBruteForceAcrossCloudKinds) {
  for (const CloudKind kind :
       {CloudKind::kUniform, CloudKind::kLidar, CloudKind::kNBody}) {
    SCOPED_TRACE(rtnn::testing::to_string(kind));
    const std::vector<Vec3> points = make_cloud(kind, 384, kSeed);
    const std::vector<Vec3> queries = make_cloud(kind, 48, kSeed + 7);
    expect_sharded_parity(points, queries, typical_radius(kind),
                          rtnn::testing::to_string(kind));
  }
}

TEST(ShardedBackend, CountsOnlyTruncationMatchesUnsharded) {
  // Pins the audit of gather_shard_results' counts-only clamp
  // (min(K, sum of partial counts)): for every K down to 1 the sharded
  // counts must equal the unsharded truncation min(K, true count), in
  // both modes. K = 0 is not a legal truncation — the whole stack
  // rejects it at the door, sharded and unsharded alike, so the clamp
  // never sees it.
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 384, kSeed);
  const std::vector<Vec3> queries = make_cloud(CloudKind::kUniform, 48, kSeed + 11);
  const float radius = 2.0f * typical_radius(CloudKind::kUniform);  // dense: counts >> 1

  auto reference = engine::make_backend("brute_force");
  reference->set_points(points);
  engine::ShardedBackend sharded = make_sharded(points);
  ASSERT_GT(sharded.shard_count(), 1u);

  for (const std::uint32_t k : {1u, 2u, 5u, 32u}) {
    SearchParams counts = range_params(radius, k);
    counts.store_indices = false;
    rtnn::testing::expect_counts_equal(sharded.search(queries, counts),
                                       reference->search(queries, counts, nullptr),
                                       "counts range k=" + std::to_string(k));
    SearchParams knn = knn_params(radius, k);
    knn.store_indices = false;
    rtnn::testing::expect_counts_equal(sharded.search(queries, knn),
                                       reference->search(queries, knn, nullptr),
                                       "counts knn k=" + std::to_string(k));
  }

  SearchParams zero = range_params(radius, 1);
  zero.k = 0;
  EXPECT_THROW((void)sharded.search(queries, zero), Error);
  auto unsharded = engine::make_backend("rtnn");
  unsharded->set_points(points);
  EXPECT_THROW((void)unsharded->search(queries, zero, nullptr), Error);
}

TEST(ShardedBackend, BelowThresholdDelegatesWhole) {
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 100, kSeed);
  engine::ShardedBackend backend = make_sharded(points, /*shard_threshold=*/1000);
  EXPECT_EQ(backend.shard_count(), 1u);

  // Byte-identical to the inner backend: ids, order, everything.
  auto inner = engine::make_backend("rtnn");
  inner->set_points(points);
  const std::vector<Vec3> queries(points.begin(), points.begin() + 16);
  const SearchParams knn = knn_params(typical_radius(CloudKind::kUniform));
  rtnn::testing::expect_knn_identical(backend.search(queries, knn),
                                      inner->search(queries, knn, nullptr), "delegated");
}

TEST(ShardedBackend, UpdatePointsRefitsAndRetightensBounds) {
  std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 384, kSeed);
  const std::vector<Vec3> queries = make_cloud(CloudKind::kUniform, 48, kSeed + 3);
  const float radius = typical_radius(CloudKind::kUniform);

  engine::ShardedBackend sharded = make_sharded(points);
  ASSERT_GT(sharded.shard_count(), 1u);
  (void)sharded.search(queries, knn_params(radius));

  // Same-count drift: ids keep their shard, bounds must re-tighten so
  // routing stays exact for the moved positions.
  for (Vec3& p : points) {
    p.x += 0.2f;
    p.y -= 0.15f;
  }
  sharded.update_points(points);
  EXPECT_EQ(sharded.point_count(), points.size());
  for (const ShardPlan::Shard& shard : sharded.plan().shards) {
    for (const std::uint32_t id : shard.point_ids) {
      EXPECT_TRUE(shard.bounds.contains(points[id]));
    }
  }
  auto reference = engine::make_backend("brute_force");
  reference->set_points(points);
  const SearchParams knn = knn_params(radius);
  rtnn::testing::expect_knn_identical(sharded.search(queries, knn),
                                      reference->search(queries, knn, nullptr), "after drift");

  // Resize: replans from scratch (possibly a different shard count).
  points.resize(150);
  sharded.update_points(points);
  EXPECT_EQ(sharded.point_count(), 150u);
  reference->set_points(points);
  rtnn::testing::expect_knn_identical(sharded.search(queries, knn),
                                      reference->search(queries, knn, nullptr), "after resize");
}

TEST(ShardedBackend, SnapshotIsIndependentOfLaterUpdates) {
  std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 384, kSeed);
  const std::vector<Vec3> queries = make_cloud(CloudKind::kUniform, 32, kSeed + 5);
  const float radius = typical_radius(CloudKind::kUniform);
  const SearchParams knn = knn_params(radius);

  engine::ShardedBackend master = make_sharded(points);
  std::unique_ptr<engine::SearchBackend> snap = master.snapshot();
  ASSERT_NE(snap, nullptr);

  auto reference = engine::make_backend("brute_force");
  reference->set_points(points);
  const NeighborResult before = reference->search(queries, knn, nullptr);

  // Mutate the master; the snapshot must keep answering the old cloud.
  std::vector<Vec3> moved = points;
  for (Vec3& p : moved) p.z += 1.0f;
  master.update_points(moved);

  rtnn::testing::expect_knn_identical(snap->search(queries, knn), before,
                                      "snapshot after master update");
  reference->set_points(moved);
  rtnn::testing::expect_knn_identical(master.search(queries, knn),
                                      reference->search(queries, knn, nullptr),
                                      "master after update");
}

TEST(ShardedBackend, ReportsAggregateAcrossShards) {
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 384, kSeed);
  const std::vector<Vec3> queries = make_cloud(CloudKind::kUniform, 64, kSeed + 9);
  engine::ShardedBackend sharded = make_sharded(points);
  ASSERT_GT(sharded.shard_count(), 1u);

  engine::SearchBackend::Report report;
  (void)sharded.search(queries, knn_params(typical_radius(CloudKind::kUniform)), &report);
  EXPECT_GT(report.time.search + report.time.first_search, 0.0);

  // Fanout accounting: every query touches at least one shard (they all
  // have neighbors in-cloud) and at most all of them.
  EXPECT_GE(sharded.total_fanout(), queries.size());
  EXPECT_LE(sharded.total_fanout(), queries.size() * sharded.shard_count());
}

TEST(ShardedBackend, CapsMirrorTheInnerBackend) {
  const engine::ShardedBackend sharded("rtnn");
  const auto inner = engine::make_backend("rtnn");
  const engine::BackendCaps a = sharded.caps();
  const engine::BackendCaps b = inner->caps();
  EXPECT_EQ(a.range, b.range);
  EXPECT_EQ(a.knn, b.knn);
  EXPECT_EQ(a.approximate, b.approximate);
  EXPECT_EQ(a.dynamic, b.dynamic);
  EXPECT_EQ(a.snapshot, b.snapshot);
  EXPECT_THROW(engine::ShardedBackend("no_such_backend"), Error);
}
