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
//   * ox::launch(accel, pipeline, width) ~ optixLaunch
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
// one SIMT lane. launch(accel, …) walks the accel's one resident tree.
// The hardware characterizations of Figures 5–8 (warp-lockstep SIMT
// execution, cache replay, per-node counts) launch on a binary rt::Bvh
// the caller builds, through launch(bvh, …, rt::TraceConfig).
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
  /// Defer each tile's bottom-level build to its first routed ray
  /// (build-on-first-route). The deferred cost lands inside the first
  /// launch that reaches the tile.
  bool lazy_build = false;
};

namespace detail {

/// The shared immutable build product behind an Accel handle: one
/// resident wide tree (or one tiled index). build_accel collapses the
/// binary LBVH into `wide` eagerly, so the cost lands in the caller's
/// build timing (time.bvh) like the rest of the acceleration-structure
/// work (the cost model's T_build = k1·M stays linear), then drops it.
struct AccelData {
  rt::WideBvh wide;
  /// The two-level build product (build_tiled_accel). Exactly one of
  /// {wide, tiled} is populated per accel; a tiled accel's per-tile
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

  /// The compressed 8-wide BVH every launch on a monolithic accel
  /// traverses — the one tree it keeps resident.
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
    return data_->wide.prim_count();
  }
  bool built() const { return data_ != nullptr; }

  /// Root bounds of whichever build product this accel holds (the
  /// scheduler seeds its uniform grid from this).
  const Aabb& scene_bounds() const {
    RTNN_CHECK(data_ != nullptr, "accel not built");
    return is_tiled() ? data_->tiled.scene_bounds() : data_->wide.scene_bounds();
  }

  /// Refits the wide tree to moved primitive boxes (same count and id
  /// order as the build; rt::WideBvh::refit). Quality after cumulative
  /// motion is observable via sah_inflation().
  void refit(std::span<const Aabb> prim_aabbs);

  /// Point-cloud fast path: refit over Aabb::cube(points[i], aabb_width)
  /// without materializing the box array (the per-frame RTNN shape).
  void refit(std::span<const Vec3> points, float aabb_width);

  /// Tiled-accel update: absorbs one frame of motion locally. Only
  /// *touched* tiles (bitwise position change) do any work, each deciding
  /// refit-vs-rebuild through `policy` — the per-tile form of the
  /// monolithic refit-or-rebuild choice. Copy-on-write like refit():
  /// snapshots sharing this build product keep the pre-update tiles.
  rt::TiledUpdateStats update_tiled(std::span<const Vec3> points,
                                    const rt::TileUpdatePolicy& policy);

  /// SAH cost relative to the last full build of this topology: 1.0 when
  /// freshly built, growing as refits stretch the boxes. Feeds the
  /// refit-vs-rebuild policy (CostModel::max_sah_inflation). For a tiled
  /// accel this is the *worst* built tile's inflation — the number the
  /// per-tile policy reacted to most recently.
  double sah_inflation() const {
    if (data_ == nullptr) return 1.0;
    return is_tiled() ? data_->tiled.max_sah_inflation() : data_->wide.sah_inflation();
  }

 private:
  friend class Context;
  std::shared_ptr<const detail::AccelData> data_;
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

/// The body both launch overloads share: the RG shader materializes the
/// rays (a data-parallel kernel of its own; the walks consume them as a
/// span), `walk(rays, adapter)` traces them, then CH/Miss run per ray if
/// the pipeline defines them.
template <PipelineShaders P, typename Walk>
LaunchStats run_launch(P& pipeline, std::uint32_t width, Walk&& walk) {
  std::vector<Ray> rays(width);
  parallel_for(0, width, [&](std::int64_t i) {
    rays[static_cast<std::size_t>(i)] = pipeline.raygen(static_cast<std::uint32_t>(i));
  }, grain::kElementwise);

  constexpr bool kNeedsHitInfo = HasClosestHit<P> || HasMiss<P>;
  std::vector<std::uint8_t> is_invoked;
  if constexpr (kNeedsHitInfo) is_invoked.assign(width, 0);

  ProgramAdapter<P> adapter{pipeline, kNeedsHitInfo ? &is_invoked : nullptr};
  const LaunchStats stats = walk(std::span<const Ray>(rays), adapter);

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

}  // namespace detail

/// optixLaunch: runs the RG shader for every index in [0, width), traces
/// the generated rays through the accel's one resident tree — the TLAS
/// walk of a tiled accel, the compressed wide walk otherwise — and
/// dispatches CH/Miss per ray if the pipeline defines them.
template <PipelineShaders P>
LaunchStats launch(const Accel& accel, P& pipeline, std::uint32_t width) {
  RTNN_CHECK(accel.built(), "launch against an unbuilt accel");
  return detail::run_launch(pipeline, width, [&](std::span<const Ray> rays, auto& adapter) {
    return accel.is_tiled() ? rt::trace(accel.tiled_bvh(), rays, adapter)
                            : rt::trace(accel.wide_bvh(), rays, adapter);
  });
}

/// The characterization launch: the same pipeline stages over a binary
/// BVH the caller built (outside its timing), in either execution model.
/// Warp-lockstep runs count the SIMT sub-steps and lane occupancy of
/// Figures 5–6 and replay fetches through the cache simulator
/// (config.simulate_caches); independent runs give Figures 7–8 their
/// per-node counts. These walks ignore a pipeline's cull bound.
template <PipelineShaders P>
LaunchStats launch(const rt::Bvh& bvh, P& pipeline, std::uint32_t width,
                   const rt::TraceConfig& config = {}) {
  return detail::run_launch(pipeline, width, [&](std::span<const Ray> rays, auto& adapter) {
    return rt::trace(bvh, rays, adapter, config);
  });
}

}  // namespace rtnn::ox

