// Analytic cost model and partition bundling (paper section 5.2 + Supp. A/C).
//
// Every partition pays one BVH build; bundling partitions saves builds but
// inflates the merged partition's AABB (and therefore its search work).
// The model:
//
//   T = Σ_i ( T_build^i + T_search^i )            (eq. 2)
//   T_build  = k1 · M                             (eq. 3; M = #AABBs, linear — Fig. 15)
//   T_search = k2 · N · ρ · S³        (KNN, eq. 4; N·ρ·S³ ≈ #IS calls)
//   T_search = k3 · N · K             (range, Supp. A; k3 is cheaper when
//                                      the sphere test is elided)
//
// Only the *ratios* of k1:k2:k3 matter for choosing a bundling; they are
// obtained by offline profiling (calibrate()), and the defaults below
// stand in for a profile. The paper's fallback without one, "the default
// strategy" (one bundle per partition, Listing 3), is
// OptimizationFlags::no_bundling().
//
// The optimal bundling (Supp. C theorem): with partitions sorted by query
// count, the best plan with M_o bundles keeps the (M_o − 1) most-populous
// partitions separate and merges the rest into one; scanning M_o = 1..M
// finds the optimum in linear time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vec3.hpp"
#include "rtnn/partitioner.hpp"
#include "rtnn/types.hpp"

namespace rtnn {

struct CostModel {
  // Per-event costs in seconds. Defaults measured on the reference CPU
  // substrate by bench/micro_costmodel. Substrate note: on the real RT
  // hardware the ratio k1:k2 is ~1:15000 (builds are cheap, IS calls run
  // on the SMs); on the CPU substrate builds are *expensive* relative to
  // IS calls, so bundling correctly merges more aggressively here.
  //
  // Layout note: these default constants were fit on an FP32 wide walk
  // that no longer exists. Only the k1:k2:k3 ratios matter to the
  // planner, and calibrate() measures the only wide walk there is — the
  // compressed layout every search traverses — so a freshly calibrated
  // model is always self-consistent.
  /// BVH build per AABB. Fit before the build collapsed its subtrees in
  /// parallel and quantized as it went (about 2x faster at 4 threads on
  /// 500k points), and deliberately left as it was: re-fitting k1, k2, k3
  /// and k_refit together is ROADMAP item 6, and moving k1 alone would
  /// move the planner's bundling (batch_knn's plan among it).
  double k1 = 1.5e-7;
  /// KNN IS call (sphere test + heap), per IS call of the *unculled,
  /// unseeded* walk — the count the ρS³ term predicts. Searches cull KNN
  /// rays by the K-th distance (KnnPipeline::cull_shrink), start each
  /// heap from the previous ray's neighbours, and make fewer calls;
  /// calibrate() measures k2 with neither (a pipeline without a width).
  /// Re-fitting it on the culled, seeded walk stays with ROADMAP item 6.
  double k2 = 6.0e-9;
  double k3_slow = 3.0e-8;  // range IS call with sphere test
  double k3_fast = 6.0e-9;  // range IS call, sphere test elided
  /// Accel refit per AABB (leaf refresh + subtree sweep + lane rewrite).
  /// Well under k1 on every substrate — refitting skips the Morton sort,
  /// the tree build and the wide collapse — which is what makes the
  /// dynamic-cloud lifecycle pay off.
  double k_refit = 3.0e-8;
  /// Quality guard of the refit-vs-rebuild policy: once cumulative motion
  /// has inflated the refitted tree's SAH cost past this factor of its
  /// fresh build, predicted search savings are judged forfeited and the
  /// next frame rebuilds. Matches the ~1.3-1.5x degradation point where
  /// measured traversal work starts tracking the SAH estimate upward.
  double max_sah_inflation = 1.4;

  /// Offline profiling (paper: "obtained offline through profiling the BVH
  /// construction time per AABB and the IS shader execution time per
  /// call"). `sample_points` should be a few hundred thousand points drawn
  /// from the target distribution.
  static CostModel calibrate(std::span<const Vec3> sample_points, float radius,
                             std::uint32_t k);
};

/// One launch unit after bundling: a set of partitions sharing one BVH.
struct Bundle {
  std::vector<std::uint32_t> partition_indices;
  float aabb_width = 0.0f;      // max over members
  bool skip_sphere_test = false;  // recomputed for the merged width
  std::uint64_t query_count = 0;
};

struct BundlePlan {
  std::vector<Bundle> bundles;
};

/// The two ways a kept index can absorb a frame of motion.
enum class IndexUpdate : std::uint8_t {
  kRefit,    // bounds refreshed in place, topology reused
  kRebuild,  // from-scratch build (Morton sort + tree + wide collapse)
};

/// Per-frame index decision for a dynamic point cloud: refit when it is
/// both cheaper (k_refit < k1; per-AABB costs make the comparison
/// size-independent) and the observed quality degradation of the current
/// index is within max_sah_inflation; otherwise rebuild. The inflation is
/// *measured* on the live tree (Bvh::sah_inflation), not predicted — the
/// policy reacts one frame after quality collapses, which bounds the
/// damage to a single degraded search.
IndexUpdate choose_index_update(const CostModel& model, double sah_inflation);

/// The default strategy (Listing 3): one bundle per partition.
BundlePlan unbundled_plan(const PartitionSet& set, const SearchParams& params);

/// The Supp. C plan with `m_o` bundles (1 ≤ m_o ≤ partition count): the
/// (m − m_o + 1) least-populous partitions merge into one bundle, and each
/// of the rest keeps its own. Ties in query count keep partition order.
BundlePlan theorem_plan(const PartitionSet& set, std::size_t m_o, const SearchParams& params);

/// Cost-model-optimal bundling: the cheapest theorem_plan over m_o = 1..M.
BundlePlan plan_bundles(const PartitionSet& set, std::size_t n_points,
                        const SearchParams& params, const CostModel& model);

/// Predicted cost of an arbitrary plan under the model (exposed for the
/// Oracle ablation and for tests of the theorem).
double predict_cost(const BundlePlan& plan, const PartitionSet& set, std::size_t n_points,
                    const SearchParams& params, const CostModel& model);

}  // namespace rtnn
