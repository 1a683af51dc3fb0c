// Shared dataset infrastructure for the figure-reproduction cases.
//
// Every case in bench/ regenerates one figure of the paper's evaluation
// (`rtnn_bench --list` prints the index) and registers itself with the
// BenchRegistry (src/bench/); the rtnn_bench CLI runs them. Datasets are
// the synthetic stand-ins of src/datasets/ (paper_dataset below), sized
// by the runner's scale option (default 0.02 — i.e. KITTI-25M becomes
// 500k points) so the whole suite runs in minutes on a CPU; the paper's
// *shapes* are preserved, absolute numbers are not (different substrate).
//
// Timing and console headers live in the runner (src/bench/runner.hpp):
// cases measure through CaseContext's min-of-N API, never single shots.
//
// Environment knobs (defaults for the CLI flags of the same meaning):
//   RTNN_BENCH_SCALE   dataset scale factor relative to the paper (float)
//   RTNN_THREADS       worker threads (models the 2080 vs 2080Ti pair)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vec3.hpp"
#include "datasets/point_cloud.hpp"

namespace rtnn::bench {

/// Scale factor from RTNN_BENCH_SCALE (default 0.02, clamped to ≥0.002).
/// The CLI's --scale flag overrides this default.
double bench_scale();

/// Mixes a user seed offset into a generator's base seed. seed == 0
/// reproduces the canonical datasets bit-for-bit; any other value derives
/// an independent but equally deterministic set.
constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t base) {
  return base ^ (seed * 0x9e3779b97f4a7c15ULL);
}

/// One evaluation dataset, named as in the paper.
struct BenchDataset {
  std::string name;        // e.g. "KITTI-12M" (paper name; actual size scaled)
  data::PointCloud points;
  float radius = 0.0f;     // auto-fitted search radius (~2K expected neighbors)
};

/// The nine datasets of Figure 11, at `scale` times the paper's sizes.
/// `k` is the neighbor budget used to auto-fit each radius; `seed` is the
/// explicit RNG seed offset (0 = the canonical, CI-reproducible sets).
std::vector<BenchDataset> paper_datasets(double scale, std::uint32_t k,
                                         std::uint64_t seed = 0);

/// A single dataset by paper name ("KITTI-12M", "NBody-9M", "Buddha-4.6M", ...).
BenchDataset paper_dataset(const std::string& name, double scale, std::uint32_t k,
                           std::uint64_t seed = 0);

/// Radius such that a K-neighborhood is comfortably contained (median
/// K-th-neighbor distance of sampled queries, times 1.5).
float auto_radius(const data::PointCloud& points, std::uint32_t k);

/// Physically-motivated search radius per dataset family, independent of
/// the point-count scale: 3 m for LiDAR scenes (object scale), 10 Mpc/h
/// for the cosmological box (cluster scale). Surface models keep the
/// density-fitted radius. Used by the partitioning-centric harnesses
/// (Figures 12/13/16) where the paper's regime has the 2r AABB enclosing
/// far more than K neighbors.
float paper_radius(const std::string& name, const BenchDataset& ds);

}  // namespace rtnn::bench
