// rtnn::ox — an OptiX-7-shaped host API over the rtcore substrate.
//
// The paper programs the RT cores through OptiX (section 2.3, Figure 3):
// build an acceleration structure over custom AABB primitives, then launch
// a pipeline whose programmable stages (Ray Generation, Intersection,
// Any-Hit, Closest-Hit, Miss) are user shaders compiled into one kernel.
// This header reproduces that programming model so the RTNN algorithm code
// reads like its CUDA/OptiX original:
//
//   * ox::Context::build_accel(aabbs)  ~ optixAccelBuild over
//     OPTIX_BUILD_INPUT_TYPE_CUSTOM_PRIMITIVES
//   * ox::launch(ctx, accel, pipeline, width) ~ optixLaunch
//   * Pipeline::raygen(i) is the RG shader: it returns the ray for launch
//     index i (optixGetLaunchIndex + optixTrace).
//   * Pipeline::intersection(ray, prim) is the IS shader; returning
//     TraceAction::kTerminate is the AH shader calling
//     optixTerminateRay().
//   * Optional Pipeline::closest_hit(ray) / Pipeline::miss(ray) run after
//     traversal completes, depending on whether any IS call was made for
//     the ray.
//   * Optional Pipeline::cull_shrink(ray) has no OptiX counterpart: it is
//     the software RT core's per-ray cull bound (rt::CullingProgram),
//     re-read after every IS call. While it returns δ > 0 the wide and
//     tiled walks skip every box the ray's origin is not inside once
//     shrunk by δ per face. KnnPipeline supplies it from its
//     heap's K-th distance.
//
// "Single Instruction Multiple Rays": each launch index maps to one ray /
// one SIMT lane; the warp-lockstep execution model is selected through
// LaunchOptions.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>

#include "core/aabb.hpp"
#include "core/error.hpp"
#include "core/vec3.hpp"
#include "rtcore/bvh.hpp"
#include "rtcore/tlas.hpp"
#include "rtcore/traversal.hpp"
#include "rtcore/wide_bvh.hpp"

namespace rtnn::ox {

using rt::ExecutionModel;
using rt::LaunchStats;
using rt::TraceAction;

struct AccelBuildOptions {
  /// Primitives per BVH leaf (1 = RTNN's configuration).
  std::uint32_t leaf_size = 1;
};

/// Options for the two-level (IAS-like) build: a top-level BVH over
/// spatial tiles, each owning its own bottom-level index.
struct TiledAccelOptions {
  /// Primitives per bottom-level leaf (1 = RTNN's configuration).
  std::uint32_t leaf_size = 1;
  /// Defer each tile's bottom-level build to its first routed ray
  /// (build-on-first-route). The deferred cost lands inside the first
  /// launch that reaches the tile.
  bool lazy_build = false;
};

namespace detail {

/// The shared immutable build product behind an Accel handle. The wide
/// tree is collapsed during build_accel — eagerly, so the cost lands in
/// build_seconds()/time.bvh like the rest of the acceleration-structure
/// work (the cost model's T_build = k1·M stays linear; a lazy collapse
/// would leak into the first launch's timing and bias the k2 estimate).
struct AccelData {
  /// Stays resident beside `wide`: warp-lockstep and use_wide_bvh=false
  /// launches walk it, and its SAH drives the refit-vs-rebuild policy.
  rt::Bvh bvh;
  rt::WideBvh wide;
  /// The two-level build product (build_tiled_accel). Exactly one of
  /// {bvh+wide, tiled} is populated per accel; a tiled accel's per-tile
  /// copy-on-write nests inside this struct's own COW, so snapshots of a
  /// tiled accel share untouched tiles even across update_tiled() calls.
  rt::TiledBvh tiled;
};

}  // namespace detail

/// Geometry acceleration structure (GAS) over custom AABB primitives.
/// Lifecycle: build_accel() creates it; refit() updates it in place for
/// moved primitives (the OPTIX_BUILD_OPERATION_UPDATE analog); a changed
/// primitive count means a new build_accel(). Copies share the build
/// product; refitting one handle never mutates data another handle sees.
class Accel {
 public:
  Accel() = default;

  const rt::Bvh& bvh() const {
    RTNN_CHECK(data_ != nullptr, "accel not built");
    RTNN_CHECK(!is_tiled(), "a tiled accel has no monolithic binary BVH");
    return data_->bvh;
  }

  /// The compressed 8-wide BVH the independent (wall-clock) path
  /// traverses.
  const rt::WideBvh& wide_bvh() const {
    RTNN_CHECK(data_ != nullptr, "accel not built");
    RTNN_CHECK(!is_tiled(), "a tiled accel has no monolithic wide BVH");
    return data_->wide;
  }

  /// True when this accel is the two-level build product
  /// (build_tiled_accel): launches take the TLAS walk and updates go
  /// through update_tiled().
  bool is_tiled() const { return data_ != nullptr && !data_->tiled.empty(); }

  const rt::TiledBvh& tiled_bvh() const {
    RTNN_CHECK(is_tiled(), "accel is not a tiled build product");
    return data_->tiled;
  }

  std::uint32_t prim_count() const {
    if (data_ == nullptr) return 0;
    if (is_tiled()) return static_cast<std::uint32_t>(data_->tiled.prim_count());
    return data_->bvh.prim_count();
  }
  bool built() const { return data_ != nullptr; }

  /// Root bounds of whichever build product this accel holds (the
  /// scheduler seeds its uniform grid from this).
  const Aabb& scene_bounds() const {
    RTNN_CHECK(data_ != nullptr, "accel not built");
    return is_tiled() ? data_->tiled.scene_bounds() : data_->bvh.scene_bounds();
  }

  /// Refits both representations to moved primitive boxes (same count and
  /// id order as the build): bottom-up bound refresh on the binary tree,
  /// then an in-place re-quantization of the wide tree — topology and
  /// collapse reused, no Morton sort, no re-collapse. Cost is charged to
  /// refit_seconds() (the time.refit phase), not build_seconds(). Quality
  /// after cumulative motion is observable via sah_inflation().
  void refit(std::span<const Aabb> prim_aabbs);

  /// Point-cloud fast path: refit over Aabb::cube(points[i], aabb_width)
  /// without materializing the box array (the per-frame RTNN shape).
  void refit(std::span<const Vec3> points, float aabb_width);

  /// Tiled-accel update: absorbs one frame of motion locally. Only
  /// *touched* tiles (bitwise position change) do any work, each deciding
  /// refit-vs-rebuild through `policy` — the per-tile form of the
  /// monolithic refit-or-rebuild choice. Copy-on-write like refit():
  /// snapshots sharing this build product keep the pre-update tiles.
  /// Wall time is charged to refit_seconds().
  rt::TiledUpdateStats update_tiled(std::span<const Vec3> points,
                                    const rt::TileUpdatePolicy& policy);

  /// Build-time of the last build, seconds (the BVH phase of Figure 12).
  double build_seconds() const { return build_seconds_; }

  /// Wall time of the last refit(), seconds (the Refit phase).
  double refit_seconds() const { return refit_seconds_; }

  /// SAH cost relative to the last full build of this topology: 1.0 when
  /// freshly built, growing as refits stretch the boxes. Feeds the
  /// refit-vs-rebuild policy (CostModel::max_sah_inflation). For a tiled
  /// accel this is the *worst* built tile's inflation — the number the
  /// per-tile policy reacted to most recently.
  double sah_inflation() const {
    if (data_ == nullptr) return 1.0;
    return is_tiled() ? data_->tiled.max_sah_inflation() : data_->bvh.sah_inflation();
  }

 private:
  friend class Context;
  std::shared_ptr<const detail::AccelData> data_;
  double build_seconds_ = 0.0;
  double refit_seconds_ = 0.0;
};

struct LaunchOptions {
  ExecutionModel model = ExecutionModel::kIndependent;
  bool parallel = true;
  bool simulate_caches = false;
  /// kIndependent launches traverse the accel's compressed 8-wide BVH
  /// (the wall-clock configuration). Clear to force the binary BVH —
  /// parity and characterization runs. Ignored by kWarpLockstep, which
  /// always walks the binary tree for simulation fidelity.
  bool use_wide_bvh = true;
};

/// Shader-pipeline concepts. A pipeline must at least provide the RG and
/// IS shaders; AH (termination), CH and Miss are optional, mirroring
/// OptiX where those program groups may be null. The cull bound
/// (rt::CullingProgram) is optional the same way.
template <typename P>
concept RayGenShader = requires(P p, std::uint32_t i) {
  { p.raygen(i) } -> std::convertible_to<Ray>;
};

template <typename P>
concept IntersectionShader = requires(P p, std::uint32_t ray, std::uint32_t prim) {
  { p.intersection(ray, prim) } -> std::same_as<TraceAction>;
};

template <typename P>
concept HasClosestHit = requires(P p, std::uint32_t ray) { p.closest_hit(ray); };

template <typename P>
concept HasMiss = requires(P p, std::uint32_t ray) { p.miss(ray); };

template <typename P>
concept PipelineShaders = RayGenShader<P> && IntersectionShader<P>;

/// The device context. Owns nothing mutable besides configuration; accels
/// and launches are independent, so one Context can serve concurrent
/// pipelines (RTNN launches one pipeline per query partition).
class Context {
 public:
  Context() = default;

  /// Builds a GAS over custom primitive AABBs. Mirrors optixAccelBuild:
  /// the returned Accel snapshots the primitive boxes.
  Accel build_accel(std::span<const Aabb> prim_aabbs,
                    const AccelBuildOptions& options = {}) const;

  /// Builds the two-level (IAS-like) product: `tile_ids[t]` lists the
  /// point ids of spatial tile t (a partition of the cloud; the caller
  /// supplies Morton-contiguous tiles from the tile planner), every
  /// point boxed as Aabb::cube(points[i], aabb_width). With lazy_build the
  /// bottom-level indexes defer to their first routed ray and only the
  /// tile bounds + top-level BVH are paid here.
  Accel build_tiled_accel(std::span<const Vec3> points, float aabb_width,
                          std::span<const std::vector<std::uint32_t>> tile_ids,
                          const TiledAccelOptions& options = {}) const;
};

namespace detail {

template <PipelineShaders P>
struct ProgramAdapter {
  P& pipeline;
  // One byte per ray: whether the IS shader ran for it ("found a hit?"
  // branch of Figure 3). Only allocated when CH/Miss shaders exist.
  std::vector<std::uint8_t>* is_invoked;

  TraceAction intersect(std::uint32_t ray_id, std::uint32_t prim_id) {
    if (is_invoked) (*is_invoked)[ray_id] = 1;
    return pipeline.intersection(ray_id, prim_id);
  }

  // Declared only when the pipeline has a cull bound, so bound-less
  // pipelines keep the unbounded walks.
  float cull_shrink(std::uint32_t ray_id)
    requires rt::CullingProgram<P>
  {
    return pipeline.cull_shrink(ray_id);
  }
};

}  // namespace detail

/// optixLaunch: runs the RG shader for every index in [0, width), traces
/// the generated rays, and dispatches CH/Miss per ray if the pipeline
/// defines them.
template <PipelineShaders P>
LaunchStats launch(const Accel& accel, P& pipeline, std::uint32_t width,
                   const LaunchOptions& options = {}) {
  RTNN_CHECK(accel.built(), "launch against an unbuilt accel");

  // RG shader: materialize rays (the engine consumes them as a span; the
  // RG stage is a data-parallel kernel of its own).
  std::vector<Ray> rays(width);
  parallel_for(0, width, [&](std::int64_t i) {
    rays[static_cast<std::size_t>(i)] = pipeline.raygen(static_cast<std::uint32_t>(i));
  }, grain::kElementwise);

  constexpr bool kNeedsHitInfo = HasClosestHit<P> || HasMiss<P>;
  std::vector<std::uint8_t> is_invoked;
  if constexpr (kNeedsHitInfo) is_invoked.assign(width, 0);

  detail::ProgramAdapter<P> adapter{pipeline, kNeedsHitInfo ? &is_invoked : nullptr};

  rt::TraceConfig config;
  config.model = options.model;
  config.parallel = options.parallel;
  config.simulate_caches = options.simulate_caches;
  const bool wide =
      options.model == ExecutionModel::kIndependent && options.use_wide_bvh;
  // A tiled accel has exactly one traversal: the TLAS walk (independent
  // model).
  const LaunchStats stats =
      accel.is_tiled()
          ? rt::trace(accel.tiled_bvh(), std::span<const Ray>(rays), adapter, config)
      : wide
          ? rt::trace(accel.wide_bvh(), std::span<const Ray>(rays), adapter, config)
          : rt::trace(accel.bvh(), std::span<const Ray>(rays), adapter, config);

  if constexpr (kNeedsHitInfo) {
    parallel_for(0, width, [&](std::int64_t i) {
      const auto ray = static_cast<std::uint32_t>(i);
      if (is_invoked[ray]) {
        if constexpr (HasClosestHit<P>) pipeline.closest_hit(ray);
      } else {
        if constexpr (HasMiss<P>) pipeline.miss(ray);
      }
    });
  }
  return stats;
}

}  // namespace rtnn::ox
