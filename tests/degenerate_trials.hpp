// The degenerate-geometry trials of the differential harness: small
// seeded clouds spatial structures get wrong (coincident points, collinear
// and planar sets, extreme coordinate magnitudes, one far outlier, points
// at ±FLT_MAX, denormal coordinates, one site holding most points, tight
// clusters, exact distance ties), each
// with a query set mixing exact hits, jittered neighbors and far-away
// misses. Shared by every suite that checks a search path against a
// reference under these geometries. Every trial carries its generator
// name and seed, so a failure reproduces from the test output alone.
#pragma once

#include <cfloat>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/vec3.hpp"

namespace rtnn::testing {

struct Trial {
  std::string generator{};
  std::uint64_t seed = 0;
  std::vector<Vec3> points{};
  std::vector<Vec3> queries{};
  float radius = 0.0f;
};

inline constexpr std::size_t kPoints = 384;
inline constexpr std::size_t kQueries = 96;

/// Queries: half sampled on the points (exact-hit / zero-distance ties),
/// half jittered around them, a few far outside (empty neighborhoods).
inline std::vector<Vec3> make_queries(const std::vector<Vec3>& points, float radius,
                                      Pcg32& rng) {
  std::vector<Vec3> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const Vec3& base = points[rng.next_bounded(static_cast<std::uint32_t>(points.size()))];
    if (i % 8 == 7) {
      // Far away: no neighbors at all.
      queries.push_back({base.x + 1000.0f * radius, base.y, base.z});
    } else if (i % 2 == 0) {
      queries.push_back(base);
    } else {
      queries.push_back({base.x + radius * (rng.next_float() - 0.5f),
                         base.y + radius * (rng.next_float() - 0.5f),
                         base.z + radius * (rng.next_float() - 0.5f)});
    }
  }
  return queries;
}

inline Trial uniform_trial(std::uint64_t seed) {
  Trial trial{.generator = "uniform", .seed = seed};
  Pcg32 rng(seed);
  trial.points.reserve(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// A handful of sites, every point an exact copy of one of them: zero
/// extents, zero distances, maximal ties.
inline Trial coincident_trial(std::uint64_t seed) {
  Trial trial{.generator = "coincident", .seed = seed};
  Pcg32 rng(seed);
  std::vector<Vec3> sites;
  for (int s = 0; s < 12; ++s) {
    sites.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back(sites[rng.next_bounded(static_cast<std::uint32_t>(sites.size()))]);
  }
  trial.radius = 0.05f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Exactly collinear points (duplicates included): a 1-D set embedded in
/// 3-D, degenerate bounds on two axes.
inline Trial collinear_trial(std::uint64_t seed) {
  Trial trial{.generator = "collinear", .seed = seed};
  Pcg32 rng(seed);
  const Vec3 origin{rng.next_float(), rng.next_float(), rng.next_float()};
  const Vec3 dir{1.0f, 0.5f, -0.25f};
  for (std::size_t i = 0; i < kPoints; ++i) {
    const float t = rng.next_float();
    trial.points.push_back(
        {origin.x + t * dir.x, origin.y + t * dir.y, origin.z + t * dir.z});
  }
  trial.points[5] = trial.points[4];  // plus exact duplicates on the line
  trial.radius = 0.04f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Exactly planar points: z is one constant for the whole set.
inline Trial planar_trial(std::uint64_t seed) {
  Trial trial{.generator = "planar", .seed = seed};
  Pcg32 rng(seed);
  const float z = rng.next_float();
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({rng.next_float(), rng.next_float(), z});
  }
  trial.radius = 0.12f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Large coordinate magnitudes (offsets of ~1e6) with a proportionally
/// large radius: float cancellation territory.
inline Trial extreme_trial(std::uint64_t seed) {
  Trial trial{.generator = "extreme", .seed = seed};
  Pcg32 rng(seed);
  const float scale = 1.0e6f;
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({scale + scale * 0.001f * rng.next_float(),
                            -scale + scale * 0.001f * rng.next_float(),
                            scale * 0.001f * rng.next_float()});
  }
  trial.radius = scale * 1.5e-4f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// A uniform unit cube plus one finite point at x = 3e38, at a seeded
/// position in the id order. The outlier stretches every root cell, grid
/// and tile plan to ~3e38, where a cell bound computed as center ± half
/// absorbs the whole cloud's offset.
inline Trial far_outlier_trial(std::uint64_t seed) {
  Trial trial{.generator = "far_outlier", .seed = seed};
  Pcg32 rng(seed);
  for (std::size_t i = 0; i + 1 < kPoints; ++i) {
    trial.points.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  const std::uint32_t at = rng.next_bounded(static_cast<std::uint32_t>(kPoints));
  trial.points.insert(trial.points.begin() + at, Vec3{3.0e38f, 0.5f, 0.5f});
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// A uniform unit cube plus one point at x = +FLT_MAX and one at -FLT_MAX,
/// at seeded positions in the id order: the extent of the centroids
/// overflows to inf, so every Morton frame, grid and tile plan sized by
/// it must survive an infinite extent.
inline Trial flt_max_trial(std::uint64_t seed) {
  Trial trial{.generator = "flt_max", .seed = seed};
  Pcg32 rng(seed);
  for (std::size_t i = 0; i + 2 < kPoints; ++i) {
    trial.points.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  for (const float x : {FLT_MAX, -FLT_MAX}) {
    const std::uint32_t at =
        rng.next_bounded(static_cast<std::uint32_t>(trial.points.size() + 1));
    trial.points.insert(trial.points.begin() + at, Vec3{x, 0.5f, 0.5f});
  }
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Denormal coordinates (below 1e-39) at r = 1e-18, whose square 1e-36 is
/// still a normal float: every point lies within r of every near query,
/// and most squared distances underflow to exact zero ties.
inline Trial denormal_trial(std::uint64_t seed) {
  Trial trial{.generator = "denormal", .seed = seed};
  Pcg32 rng(seed);
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({1.0e-39f * rng.next_float(), 1.0e-39f * rng.next_float(),
                            1.0e-39f * rng.next_float()});
  }
  trial.radius = 1.0e-18f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// One site holding 256 of the 384 points, at shuffled ids, beside a
/// uniform cloud: a leaf-deep pile of zero-extent boxes and zero-distance
/// ties next to ordinary geometry.
inline Trial pile_trial(std::uint64_t seed) {
  Trial trial{.generator = "pile", .seed = seed};
  Pcg32 rng(seed);
  const Vec3 site{rng.next_float(), rng.next_float(), rng.next_float()};
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back(i < 256 ? site
                                   : Vec3{rng.next_float(), rng.next_float(), rng.next_float()});
  }
  for (std::size_t i = trial.points.size() - 1; i > 0; --i) {
    const std::uint32_t j = rng.next_bounded(static_cast<std::uint32_t>(i + 1));
    std::swap(trial.points[i], trial.points[j]);
  }
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Dense clusters with empty space between them (partitioner stress).
inline Trial clustered_trial(std::uint64_t seed) {
  Trial trial{.generator = "clustered", .seed = seed};
  Pcg32 rng(seed);
  std::vector<Vec3> centers;
  for (int c = 0; c < 6; ++c) {
    centers.push_back(
        {10.0f * rng.next_float(), 10.0f * rng.next_float(), 10.0f * rng.next_float()});
  }
  for (std::size_t i = 0; i < kPoints; ++i) {
    const Vec3& c = centers[rng.next_bounded(static_cast<std::uint32_t>(centers.size()))];
    trial.points.push_back({c.x + 0.1f * (rng.next_float() - 0.5f),
                            c.y + 0.1f * (rng.next_float() - 0.5f),
                            c.z + 0.1f * (rng.next_float() - 0.5f)});
  }
  trial.radius = 0.08f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// An 8x8x6 lattice at spacing 1/8 (exact in float, so equal distances
/// are bitwise equal) with ids shuffled by the seed, so id order
/// disagrees with Morton order. At r = 0.2 an exact-hit query sees its 6
/// face neighbours at one distance and its 12 edge neighbours at the
/// next, so K = 8 keeps exactly one edge neighbour: the (dist², id) order
/// alone decides which.
inline Trial lattice_trial(std::uint64_t seed) {
  Trial trial{.generator = "lattice", .seed = seed};
  Pcg32 rng(seed);
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      for (int z = 0; z < 6; ++z) {
        trial.points.push_back({0.125f * static_cast<float>(x),
                                0.125f * static_cast<float>(y),
                                0.125f * static_cast<float>(z)});
      }
    }
  }
  for (std::size_t i = trial.points.size() - 1; i > 0; --i) {
    const std::uint32_t j = rng.next_bounded(static_cast<std::uint32_t>(i + 1));
    std::swap(trial.points[i], trial.points[j]);
  }
  trial.radius = 0.2f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// One trial of every degenerate shape (all generators but uniform and
/// lattice), seeded seed, seed + 1, ... in declaration order — the clouds
/// the wide-BVH suites build their degenerate scenes from.
inline std::vector<Trial> degenerate_shapes(std::uint64_t seed) {
  return {coincident_trial(seed),     collinear_trial(seed + 1), planar_trial(seed + 2),
          extreme_trial(seed + 3),    clustered_trial(seed + 4),
          far_outlier_trial(seed + 5)};
}

inline std::vector<Trial> all_trials() {
  // Seeds derive from one master PCG stream: deterministic, but easy to
  // widen. Each trial's seed is printed, so any failure reproduces by
  // constructing that one generator/seed pair.
  Pcg32 master(0xd1fFu);
  std::vector<Trial> trials;
  constexpr int kTrialsPerGenerator = 3;
  for (int i = 0; i < kTrialsPerGenerator; ++i) {
    const std::uint64_t seed = master.next_u64();
    trials.push_back(uniform_trial(seed));
    trials.push_back(coincident_trial(seed));
    trials.push_back(collinear_trial(seed));
    trials.push_back(planar_trial(seed));
    trials.push_back(extreme_trial(seed));
    trials.push_back(far_outlier_trial(seed));
    trials.push_back(flt_max_trial(seed));
    trials.push_back(denormal_trial(seed));
    trials.push_back(pile_trial(seed));
    trials.push_back(clustered_trial(seed));
    trials.push_back(lattice_trial(seed));
  }
  return trials;
}

}  // namespace rtnn::testing
