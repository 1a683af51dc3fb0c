// Fixed-seed results must be invariant across worker thread counts:
// parallelism changes only wall clock, never answers. Locked in here for
// one launch through every walk (its counters too), the static search
// pipeline, dynamic frame stepping (update_points), and the coalesced
// batch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/parallel.hpp"
#include "datasets/motion.hpp"
#include "optix/optix.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/rtnn.hpp"
#include "rtnn/scheduler.hpp"
#include "rtnn/tile_plan.hpp"
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

/// A pipeline that records where its shaders ran: per worker, the launch
/// indices its RG shader made, in order; per ray, the worker of its IS
/// calls. Each worker appends to its own log and each ray writes its own
/// slot, so recording races with nothing.
template <typename P>
struct Recorded {
  P& inner;
  std::vector<std::vector<std::uint32_t>> made;
  std::vector<int> walker;

  Recorded(P& pipeline, std::size_t rays)
      : inner(pipeline), made(static_cast<std::size_t>(num_threads())), walker(rays, -1) {}

  Ray raygen(std::uint32_t i) {
    made[static_cast<std::size_t>(worker_index())].push_back(i);
    return inner.raygen(i);
  }
  ox::TraceAction intersection(std::uint32_t ray, std::uint32_t prim) {
    walker[ray] = worker_index();
    return inner.intersection(ray, prim);
  }
  float cull_shrink(std::uint32_t ray)
    requires rt::CullingProgram<P>
  {
    return inner.cull_shrink(ray);
  }
};

/// One worker made each aligned group of 32 launch indices, in launch
/// order, and walked every ray it made.
template <typename P>
void expect_whole_groups(const Recorded<P>& rec, std::uint32_t n, const std::string& label) {
  std::vector<int> maker(n, -1);
  for (std::size_t w = 0; w < rec.made.size(); ++w) {
    const std::vector<std::uint32_t>& log = rec.made[w];
    for (std::size_t p = 0; p < log.size();) {
      const std::uint32_t first = log[p];
      ASSERT_EQ(first % 32, 0u) << label << ": a group starts at " << first;
      const std::uint32_t count = std::min(32u, n - first);
      ASSERT_LE(p + count, log.size()) << label << ": group " << first << " split";
      for (std::uint32_t l = 0; l < count; ++l) {
        ASSERT_EQ(log[p + l], first + l) << label << ": group " << first << " out of order";
        ASSERT_EQ(maker[first + l], -1) << label << ": ray " << first + l << " made twice";
        maker[first + l] = static_cast<int>(w);
      }
      p += count;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_NE(maker[i], -1) << label << ": ray " << i << " never made";
    if (rec.walker[i] != -1) {
      ASSERT_EQ(rec.walker[i], maker[i]) << label << ": ray " << i << " walked elsewhere";
    }
  }
}

}  // namespace

TEST(Determinism, LaunchInvariantAcrossThreadCounts) {
  // 20,000 rays: at 3 workers a thread-count-sized cut (n / 12 = 1,667)
  // would fall off the 32-grid. Launch order is the scheduled (Morton)
  // order, so the KNN launch's raygen seeds each row from its
  // predecessor's, and the seeds must not depend on the thread count.
  ThreadCountGuard guard;
  const std::vector<Vec3> points = make_cloud(CloudKind::kUniform, 20000, kSeed);
  const auto n = static_cast<std::uint32_t>(points.size());
  const std::vector<std::uint32_t> ids = schedule_queries(points).order;
  const float radius = typical_radius(CloudKind::kUniform);
  const float width = 2.0f * radius;
  const ox::Context context;
  const ox::Accel wide = context.build_accel(points, width);
  const ox::Accel tiled = context.build_tiled_accel(points, width, plan_tiles(points, 8));
  rt::Bvh bvh;
  bvh.build(points, width);

  // The unseeded wide walk (rays made up front, no raygen): the seeded
  // launch must make fewer IS calls, or it is not seeded.
  rt::LaunchStats unseeded;
  {
    FlatKnnHeaps heaps(n, 8);
    pipelines::KnnPipeline knn(points, points, ids, radius, heaps, width);
    std::vector<Ray> rays(n);
    for (std::uint32_t i = 0; i < n; ++i) rays[i] = Ray::short_ray(points[ids[i]]);
    ox::detail::ProgramAdapter<pipelines::KnnPipeline> program{knn};
    unseeded = rt::trace(wide.wide_bvh(), std::span<const Ray>(rays), program);
  }
  rt::TraceConfig lockstep;
  lockstep.model = rt::ExecutionModel::kWarpLockstep;
  const char* const walks[] = {"wide", "tiled", "binary", "lockstep"};
  const auto launch = [&](int walk, auto& pipeline) {
    switch (walk) {
      case 0: return ox::launch(wide, pipeline, n);
      case 1: return ox::launch(tiled, pipeline, n);
      case 2: return ox::launch(bvh, pipeline, n);
      default: return ox::launch(bvh, pipeline, n, lockstep);
    }
  };

  struct Run {
    rt::LaunchStats stats;
    NeighborResult rows;
  };
  std::map<std::string, Run> reference;  // by walk and mode, at one thread
  for (const int threads : {1, 2, 3, 4}) {
    set_num_threads(threads);
    for (int walk = 0; walk < 4; ++walk) {
      for (const SearchMode mode : {SearchMode::kKnn, SearchMode::kRange}) {
        const std::string key =
            std::string(walks[walk]) + (mode == SearchMode::kKnn ? " knn" : " range");
        const std::string label = key + " threads=" + std::to_string(threads);
        Run run;
        if (mode == SearchMode::kKnn) {
          FlatKnnHeaps heaps(n, 8);
          pipelines::KnnPipeline knn(points, points, ids, radius, heaps, width);
          Recorded recorded(knn, n);
          run.stats = launch(walk, recorded);
          expect_whole_groups(recorded, n, label);
          run.rows = heaps.extract();
          if (walk == 0) EXPECT_LT(run.stats.is_calls, unseeded.is_calls) << label;
        } else {
          NeighborResult result(n, 16);
          pipelines::RangePipeline range(points, points, ids, radius, 16,
                                         /*skip_sphere_test=*/false, result);
          Recorded recorded(range, n);
          run.stats = launch(walk, recorded);
          expect_whole_groups(recorded, n, label);
          run.rows = std::move(result);
        }
        if (threads == 1) {
          reference[key] = std::move(run);
          continue;
        }
        const Run& ref = reference.at(key);
        EXPECT_EQ(run.stats, ref.stats) << label;
        rtnn::testing::expect_knn_identical(run.rows, ref.rows, label);
      }
    }
  }
}

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

TEST(Determinism, FrameSteppingInvariantAcrossThreadCounts) {
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
    NeighborSearch search;
    data::DriftParams drift;
    drift.velocity = 0.2f * params.radius;
    data::DriftMotion motion(cloud, drift);

    std::vector<std::vector<std::vector<std::uint32_t>>> frames;
    for (int f = 0; f < kFrames; ++f) {
      const data::PointCloud& frame = motion.step();
      if (f == 0) {
        search.set_points(frame);
      } else {
        search.update_points(frame);  // refits: the lifecycle under test
      }
      const NeighborResult result = search.search(frame, params);
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
