// Fixed-seed results must be invariant across worker thread counts: the
// per-worker StatsAccumulator refactor promised that parallelism changes
// only wall clock, never answers. Locked in here for the static search
// pipeline, dynamic session stepping, and the coalesced batch path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "datasets/motion.hpp"
#include "rtnn/rtnn.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

using namespace rtnn;
using rtnn::testing::CloudKind;
using rtnn::testing::make_cloud;
using rtnn::testing::typical_radius;

namespace {

constexpr std::uint64_t kSeed = 4242;

/// The sweep: serial, a fixed small pool, and the environment default
/// ("max"). 0 resets the override, so the last entry also restores state
/// for subsequent suites.
const std::vector<int> kThreadCounts{1, 4, 0};

/// Canonical form of a result for equality comparison: per-query counts
/// plus neighbor ids sorted by (distance, id) — the total order every
/// exact implementation in the repo agrees on.
std::vector<std::vector<std::uint32_t>> canonical(std::span<const Vec3> points,
                                                  std::span<const Vec3> queries,
                                                  const NeighborResult& result) {
  std::vector<std::vector<std::uint32_t>> rows(result.num_queries());
  for (std::size_t q = 0; q < result.num_queries(); ++q) {
    rows[q].assign(result.neighbors(q).begin(), result.neighbors(q).end());
    std::sort(rows[q].begin(), rows[q].end(), [&](std::uint32_t a, std::uint32_t b) {
      const float da = distance2(points[a], queries[q]);
      const float db = distance2(points[b], queries[q]);
      return da < db || (da == db && a < b);
    });
  }
  return rows;
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_num_threads(0); }
};

}  // namespace

TEST(Determinism, SearchInvariantAcrossThreadCounts) {
  ThreadCountGuard guard;
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const std::vector<Vec3> cloud = make_cloud(kind, 3000, kSeed);
    const std::vector<Vec3> queries(cloud.begin(), cloud.begin() + 500);

    for (const SearchMode mode : {SearchMode::kKnn, SearchMode::kRange}) {
      SearchParams params;
      params.mode = mode;
      params.radius = typical_radius(kind);
      // Range: K comfortably above any true neighbor count, so the result
      // set is unique and truncation order cannot leak into the answer.
      params.k = mode == SearchMode::kKnn ? 8 : 256;
      params.opts = OptimizationFlags::all();

      std::vector<std::vector<std::uint32_t>> reference;
      for (const int threads : kThreadCounts) {
        set_num_threads(threads);
        NeighborSearch search;
        search.set_points(cloud);
        const NeighborResult result = search.search(queries, params);
        auto rows = canonical(cloud, queries, result);
        if (reference.empty()) {
          reference = std::move(rows);
        } else {
          ASSERT_EQ(rows, reference)
              << rtnn::testing::to_string(kind) << " mode=" << static_cast<int>(mode)
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Determinism, SessionSteppingInvariantAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 2000, kSeed);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = typical_radius(CloudKind::kUniform);
  params.k = 8;
  params.opts = OptimizationFlags::none();
  constexpr int kFrames = 4;

  std::vector<std::vector<std::vector<std::uint32_t>>> reference;  // per frame
  for (const int threads : kThreadCounts) {
    set_num_threads(threads);
    DynamicSearchSession session(params);
    data::DriftParams drift;
    drift.velocity = 0.2f * params.radius;
    data::DriftMotion motion(cloud, drift);

    std::vector<std::vector<std::vector<std::uint32_t>>> frames;
    for (int f = 0; f < kFrames; ++f) {
      const data::PointCloud& frame = motion.step();
      const NeighborResult result = session.step(frame);
      frames.push_back(canonical(frame, frame, result));
    }
    if (reference.empty()) {
      reference = std::move(frames);
    } else {
      ASSERT_EQ(frames, reference) << "threads=" << threads;
    }
  }
}

TEST(Determinism, BatchedPathInvariantAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 2500, kSeed);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = typical_radius(CloudKind::kUniform);
  params.k = 8;
  params.opts = OptimizationFlags::all();

  // A merged batch of five requests of different sizes.
  const std::vector<Vec3> merged(cloud.begin(), cloud.begin() + 400);
  const std::vector<BatchSlice> slices{{0, 64}, {64, 100}, {164, 36}, {200, 128}, {328, 72}};

  std::vector<std::vector<std::vector<std::uint32_t>>> reference;  // per slice
  for (const int threads : kThreadCounts) {
    set_num_threads(threads);
    NeighborSearch search;
    search.set_points(cloud);
    const std::vector<NeighborResult> results =
        split_batch_result(search.search(merged, params), slices);

    std::vector<std::vector<std::vector<std::uint32_t>>> rows;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const std::span<const Vec3> queries(merged.data() + slices[i].first,
                                          slices[i].count);
      rows.push_back(canonical(cloud, queries, results[i]));
    }
    if (reference.empty()) {
      reference = std::move(rows);
    } else {
      ASSERT_EQ(rows, reference) << "threads=" << threads;
    }
  }
}

TEST(Determinism, ServiceAnswersInvariantAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<Vec3> cloud = make_cloud(CloudKind::kUniform, 2000, kSeed);
  SearchParams params;
  params.mode = SearchMode::kKnn;
  params.radius = typical_radius(CloudKind::kUniform);
  params.k = 8;
  params.opts = OptimizationFlags::none();

  constexpr std::size_t kRequests = 6;
  std::vector<std::vector<std::vector<std::uint32_t>>> reference;
  for (const int threads : kThreadCounts) {
    set_num_threads(threads);
    service::SearchService svc;
    const service::CloudHandle handle = svc.register_cloud("cloud", cloud);
    std::vector<std::vector<std::vector<std::uint32_t>>> answers;
    for (std::size_t r = 0; r < kRequests; ++r) {
      const std::vector<Vec3> queries(cloud.begin() + static_cast<std::ptrdiff_t>(r * 50),
                                      cloud.begin() + static_cast<std::ptrdiff_t>(r * 50 + 40));
      const service::RequestOutcome outcome = svc.query(handle, queries, params);
      answers.push_back(canonical(cloud, queries, outcome.result));
    }
    if (reference.empty()) {
      reference = std::move(answers);
    } else {
      ASSERT_EQ(answers, reference) << "threads=" << threads;
    }
  }
}
