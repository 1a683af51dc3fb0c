// BVH traversal engine — the RT-core substitute.
//
// One launch driver (detail::run_groups) runs every walk. Launch indices
// form aligned groups of kGroupSize = 32, the paper's warp (section
// 3.2.1: "OptiX groups every 32 adjacent rays generated in the RG shader
// into a warp"). One thread takes a whole group and walks its rays in
// launch order, making each with the caller's ray source (ox::launch
// passes the RG shader) just before walking it. Groups never straddle
// threads, so which rays share a thread, and in what order they run, is
// the same at every thread count. A ray source may therefore read what
// the walk of the previous ray in its group wrote, with no race and the
// same result at any thread count (KnnPipeline seeds a ray's heap from
// its predecessor's).
//
// Two execution models:
//
//  * kIndependent — the rays of a group walk one after another, each on
//    the stack its chunk reuses. This is the fast path used for
//    wall-clock performance measurements. It traverses the compressed
//    8-wide WideBvh (the production configuration; the tiled TLAS walk
//    ends in such trees), where one ray-vs-node step decodes and tests
//    all eight child AABBs with AVX2 (scalar fallback when built with
//    RTNN_ENABLE_AVX2=OFF), or a binary LBVH the caller built for the
//    per-node counts of the paper characterizations.
//
//  * kWarpLockstep — the group is a 32-lane warp that makes its lanes'
//    rays, then advances in lockstep, the way the SIMT hardware schedules
//    it. In each lockstep iteration every active lane pops one node;
//    lanes that popped *different* nodes serialize into sub-steps
//    (control-flow divergence), and each unique node fetch is replayed
//    through the cache simulator. Incoherent rays therefore cost more sub-steps, idle
//    more lane slots (lower occupancy) and miss the caches more — exactly
//    the effects of paper Figures 5 and 6. This model always walks the
//    binary BVH so its step/cache/occupancy figures stay bit-identical to
//    the hardware characterization.
//
// Every tree holds one primitive per leaf, as RTNN's point AABBs do, so a
// leaf step is one exact-AABB re-test and at most one IS call.
//
// Every walk counts its work (LaunchStats). A chunk of groups counts into
// one stack-local struct, folded once into its worker's slot
// (StatsAccumulator) and summed once per launch — no locks on the hot
// path.
//
// The `Program` template parameter plays the role of the compiled shader
// kernel: `program.intersect(ray_id, prim_id)` is the IS shader, invoked
// for each primitive whose AABB the ray intersects; returning
// TraceAction::kTerminate is the AH shader's optixTerminateRay (used by
// RTNN's range search once a query's K slots are full).
//
// A Program may also declare a cull bound (CullingProgram): a per-ray
// face shrink δ, re-read after every IS call. While δ > 0 the wide and
// tiled walks replace the short-ray test with "origin
// inside the box shrunk by δ on every face", which skips every box that
// holds no primitive the program would still accept. The binary and
// lockstep walks ignore the bound, so the paper-characterization
// counters (Figures 5–8) stay bit-identical; Programs without the member
// compile to the unbounded walk.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>

#ifdef RTNN_HAVE_AVX2
#include <immintrin.h>
#endif

#include "core/aabb.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "rtcore/bvh.hpp"
#include "rtcore/cache_sim.hpp"
#include "rtcore/launch_stats.hpp"
#include "rtcore/tlas.hpp"
#include "rtcore/wide_bvh.hpp"

namespace rtnn::rt {

enum class TraceAction : std::uint8_t { kContinue = 0, kTerminate = 1 };

enum class ExecutionModel : std::uint8_t { kIndependent = 0, kWarpLockstep = 1 };

struct TraceConfig {
  ExecutionModel model = ExecutionModel::kIndependent;
  /// Replay node and primitive fetches through the cache simulator (kL1,
  /// kL2). A simulated launch runs on one thread with one shared
  /// hierarchy, so its hit rates are exact. Supported by the warp-lockstep
  /// model (the paper-characterization path) and by the wide-BVH walk,
  /// where it models the compressed layout's real byte footprint (80 B
  /// nodes). Adds overhead; meant for characterization runs.
  bool simulate_caches = false;
  /// Must stay true: the compressed layout is the only wide layout, and
  /// the wide and tiled walks reject false. Kept only because the
  /// repo benchmark (perfbench/harness.cpp) still assigns it; the
  /// ladder-rung [benchmark] change (ROADMAP item 1) deletes that
  /// assignment, and then this field.
  bool use_compressed = true;
};

/// Software prefetch for the traversal inner loop: read-intent, keep in
/// all cache levels. A hint only — no-op where unsupported.
#if defined(__GNUC__) || defined(__clang__)
#define RTNN_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define RTNN_PREFETCH(addr) ((void)0)
#endif

/// A Program with a cull bound: `cull_shrink(ray_id)` returns the ray's
/// current face shrink δ (δ ≤ 0: no culling). The contract the walks rely
/// on: every primitive in a box the ray's origin is *not* inside, once
/// shrunk by δ on every face, would be rejected by intersect() — now and
/// at every later call. δ may only grow over a ray's traversal.
template <typename P>
concept CullingProgram = requires(P& p, std::uint32_t ray_id) {
  { p.cull_shrink(ray_id) } -> std::convertible_to<float>;
};

/// Launch indices per group: the paper's warp. Group g is launch indices
/// [g·kGroupSize, (g + 1)·kGroupSize), made and walked by one thread in
/// launch order at any thread count.
constexpr std::uint32_t kGroupSize = 32;

namespace detail {

constexpr std::uint32_t kMaxStackDepth = 128;
/// The wide stack holds up to (width-1) net pushes per level.
constexpr std::uint32_t kWideStackDepth = (kWideBvhWidth - 1) * kMaxStackDepth + 1;
// Pretend-device addresses for the cache simulator: BVH nodes and
// primitive AABBs live in distinct regions with GPU-like strides.
constexpr std::uint64_t kNodeStride = 64;
constexpr std::uint64_t kPrimRegionBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kPrimStride = 32;
// The compressed traversal's exact re-test streams a leaf-slot-ordered
// copy of the primitive AABBs — contiguous, packed at sizeof(Aabb), in its
// own region so the simulator sees it as the distinct array it is.
constexpr std::uint64_t kOrderedPrimRegionBase = std::uint64_t{1} << 41;

/// Per-ray traversal state for the lockstep engine.
struct LaneState {
  Ray ray;
  std::uint32_t stack[kMaxStackDepth];
  std::uint32_t sp = 0;
  std::uint32_t ray_id = 0;
  bool terminated = false;

  bool active() const { return !terminated && sp > 0; }
};

/// The binary walk's leaf step: the leaf's one primitive, re-tested
/// against its own AABB, then the IS call.
template <typename Program>
TraceAction process_leaf(const Bvh& bvh, const BvhNode& node, const Ray& ray,
                         std::uint32_t ray_id, Program& program, LaunchStats& stats,
                         MemoryHierarchy* mem) {
  const std::uint32_t prim = bvh.prim_order()[node.first];
  if (mem) mem->access(kPrimRegionBase + prim * kPrimStride);
  ++stats.aabb_tests;
  if (!ray_intersects_aabb(ray, bvh.prim_aabbs()[prim])) return TraceAction::kContinue;
  ++stats.is_calls;
  return program.intersect(ray_id, prim);
}

/// Classic single-ray stack traversal.
template <typename Program>
void trace_one(const Bvh& bvh, const Ray& ray, std::uint32_t ray_id, Program& program,
               LaunchStats& stats) {
  if (bvh.empty()) return;
  std::uint32_t stack[kMaxStackDepth];
  std::uint32_t sp = 0;
  stack[sp++] = bvh.root();
  const auto nodes = bvh.nodes();
  while (sp > 0) {
    const BvhNode& node = nodes[stack[--sp]];
    ++stats.node_visits;
    ++stats.aabb_tests;
    if (!ray_intersects_aabb(ray, node.bounds)) continue;
    if (node.is_leaf()) {
      if (process_leaf(bvh, node, ray, ray_id, program, stats, nullptr) ==
          TraceAction::kTerminate) {
        ++stats.terminated_rays;
        return;
      }
    } else {
      RTNN_DCHECK(sp + 2 <= kMaxStackDepth, "traversal stack overflow");
      stack[sp++] = node.left;
      stack[sp++] = node.right;
    }
  }
}

/// The cull-bound box test: `q` inside `box` shrunk by `delta` on every
/// face. Replaces the short-ray test while a CullingProgram's bound is
/// positive; with delta > 0 every box it passes contains the origin, so
/// it never passes a box the short-ray test rejects. The 8-lane form
/// below rounds each shrunk face exactly like this scalar form (one add
/// or subtract).
inline bool shrunk_box_contains(const Aabb& box, const Vec3& q, float delta) {
  return q.x >= box.lo.x + delta && q.x <= box.hi.x - delta &&
         q.y >= box.lo.y + delta && q.y <= box.hi.y - delta &&
         q.z >= box.lo.z + delta && q.z <= box.hi.z - delta;
}

/// One box step of a walk under an optional cull bound: the shrunk
/// containment test while the bound is positive, the ordinary short-ray
/// test otherwise. kCull = false compiles to the short-ray test alone.
template <bool kCull>
bool box_hit(const Ray& ray, const Aabb& box, const Vec3& inv_dir, float delta) {
  if constexpr (kCull) {
    if (delta > 0.0f) return shrunk_box_contains(box, ray.origin, delta);
  }
  return ray_intersects_aabb(ray, box, inv_dir);
}

/// node_hits tests `ray` against all eight child slots of `node` in one
/// step and returns the bitmask of intersected slots (bit i = slot i).
/// Must agree bit-for-bit with ray_intersects_aabb on every dequantized
/// slot box; empty slots may report spurious hits and are masked off by
/// the caller via valid_mask(). `inv_dir` is the precomputed 1/dir (±inf
/// for zero components), hoisted out of the per-node loop.
/// node_shrunk_hits is the same step under a positive cull bound,
/// bit-for-bit shrunk_box_contains per slot.
#ifdef RTNN_HAVE_AVX2
/// A node's eight child boxes, lane i of each register holding child i's
/// coordinate.
struct SlotLanes {
  __m256 minx, miny, minz, maxx, maxy, maxz;
};

/// Dequantizes the eight child boxes of a compressed node. Bitwise-
/// identical to the scalar dequantize_slot(): uint8 -> int32 -> float
/// conversion is exact, the multiply by a power-of-two scale is exact, and
/// the single add rounds the same way — so AVX2 and scalar builds agree
/// bit-for-bit on every decoded bound, and hence on every traversal
/// decision. No FMA: -mavx2 alone does not license it, and contracting
/// mul+add would change the rounding against the scalar decoder.
inline SlotLanes slot_lanes(const CompressedWideNode& node) {
  const auto dq = [](const std::uint8_t* q, __m256 anchor, __m256 scale) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    return _mm256_add_ps(_mm256_mul_ps(f, scale), anchor);
  };
  const __m256 ax = _mm256_set1_ps(node.anchor_x);
  const __m256 ay = _mm256_set1_ps(node.anchor_y);
  const __m256 az = _mm256_set1_ps(node.anchor_z);
  const __m256 sx = _mm256_set1_ps(quant_scale(node.exp_x));
  const __m256 sy = _mm256_set1_ps(quant_scale(node.exp_y));
  const __m256 sz = _mm256_set1_ps(quant_scale(node.exp_z));
  return {dq(node.qlox, ax, sx), dq(node.qloy, ay, sy), dq(node.qloz, az, sz),
          dq(node.qhix, ax, sx), dq(node.qhiy, ay, sy), dq(node.qhiz, az, sz)};
}

/// The 8-lane box test. Decision-identical to ray_intersects_aabb per
/// lane, including NaN semantics.
inline std::uint32_t node_hits(const CompressedWideNode& node, const Ray& ray,
                               const Vec3& inv_dir) {
  const SlotLanes b = slot_lanes(node);
  const __m256 ox = _mm256_set1_ps(ray.origin.x);
  const __m256 oy = _mm256_set1_ps(ray.origin.y);
  const __m256 oz = _mm256_set1_ps(ray.origin.z);

  // Condition 2 of paper Figure 2: the origin lies inside the box.
  __m256 inside = _mm256_and_ps(_mm256_cmp_ps(ox, b.minx, _CMP_GE_OQ),
                                _mm256_cmp_ps(ox, b.maxx, _CMP_LE_OQ));
  inside = _mm256_and_ps(inside, _mm256_and_ps(_mm256_cmp_ps(oy, b.miny, _CMP_GE_OQ),
                                               _mm256_cmp_ps(oy, b.maxy, _CMP_LE_OQ)));
  inside = _mm256_and_ps(inside, _mm256_and_ps(_mm256_cmp_ps(oz, b.minz, _CMP_GE_OQ),
                                               _mm256_cmp_ps(oz, b.maxz, _CMP_LE_OQ)));

  // Condition 1: the slab test, with the scalar path's exact NaN
  // semantics. `tnear > tfar` with a NaN is false (no swap), and
  // vmaxps/vminps return their *second* operand when the first is NaN —
  // matching the scalar `t > t0 ? t : t0` that keeps t0.
  __m256 t0 = _mm256_set1_ps(ray.tmin);
  __m256 t1 = _mm256_set1_ps(ray.tmax);
  const auto slab_axis = [&](__m256 lo, __m256 hi, __m256 o, float inv) {
    const __m256 invv = _mm256_set1_ps(inv);
    const __m256 tn = _mm256_mul_ps(_mm256_sub_ps(lo, o), invv);
    const __m256 tf = _mm256_mul_ps(_mm256_sub_ps(hi, o), invv);
    const __m256 swap = _mm256_cmp_ps(tn, tf, _CMP_GT_OQ);
    const __m256 tnear = _mm256_blendv_ps(tn, tf, swap);
    const __m256 tfar = _mm256_blendv_ps(tf, tn, swap);
    t0 = _mm256_max_ps(tnear, t0);
    t1 = _mm256_min_ps(tfar, t1);
  };
  slab_axis(b.minx, b.maxx, ox, inv_dir.x);
  slab_axis(b.miny, b.maxy, oy, inv_dir.y);
  slab_axis(b.minz, b.maxz, oz, inv_dir.z);
  const __m256 slab = _mm256_cmp_ps(t0, t1, _CMP_LE_OQ);

  return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_or_ps(inside, slab)));
}

/// The 8-lane shrunk_box_contains: lo + delta and hi - delta round once
/// per lane, exactly as the scalar form does.
inline std::uint32_t node_shrunk_hits(const CompressedWideNode& node, const Vec3& q,
                                      float delta) {
  const SlotLanes b = slot_lanes(node);
  const __m256 d = _mm256_set1_ps(delta);
  const auto axis = [&](__m256 lo, __m256 hi, float c) {
    const __m256 cv = _mm256_set1_ps(c);
    return _mm256_and_ps(_mm256_cmp_ps(cv, _mm256_add_ps(lo, d), _CMP_GE_OQ),
                         _mm256_cmp_ps(cv, _mm256_sub_ps(hi, d), _CMP_LE_OQ));
  };
  const __m256 inside = _mm256_and_ps(
      _mm256_and_ps(axis(b.minx, b.maxx, q.x), axis(b.miny, b.maxy, q.y)),
      axis(b.minz, b.maxz, q.z));
  return static_cast<std::uint32_t>(_mm256_movemask_ps(inside));
}
#else
inline std::uint32_t node_hits(const CompressedWideNode& node, const Ray& ray,
                               const Vec3& inv_dir) {
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
    if (ray_intersects_aabb(ray, dequantize_slot(node, i), inv_dir)) mask |= 1u << i;
  }
  return mask;
}

inline std::uint32_t node_shrunk_hits(const CompressedWideNode& node, const Vec3& q,
                                      float delta) {
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
    if (shrunk_box_contains(dequantize_slot(node, i), q, delta)) mask |= 1u << i;
  }
  return mask;
}
#endif

/// One node step of a wide walk under an optional cull bound (the 8-slot
/// box_hit).
template <bool kCull>
std::uint32_t slot_hits(const CompressedWideNode& node, const Ray& ray, const Vec3& inv_dir,
                        float delta) {
  if constexpr (kCull) {
    if (delta > 0.0f) return node_shrunk_hits(node, ray.origin, delta);
  }
  return node_hits(node, ray, inv_dir);
}

/// Single-ray traversal of the compressed wide BVH. `stack` is the
/// chunk's reusable buffer (kWideStackDepth entries). `mem`,
/// when non-null, replays node and leaf-ordered AABB fetches through the
/// cache simulator at the layout's real byte footprint.
///
/// Dequantized slot boxes are conservative supersets, so a slot hit alone
/// is not proof of a primitive hit: every leaf slot's one primitive is
/// re-tested against its exact AABB. That re-test is what makes candidate
/// sets identical to the binary walk's: a spurious slot hit leads into a
/// subtree whose primitives the ray provably misses, contributing zero IS
/// calls. It holds under a cull bound too: the bound only grows, so a
/// primitive an exact walk would cull stays culled at its re-test. The
/// re-test reads the leaf-ordered AABBs (ordered_prim_aabbs), so its
/// fetches stream contiguously in traversal order instead of gathering
/// through prim_order.
///
/// Inner-loop micro-optimizations:
///  * after each pop, the next stack entry's node is prefetched — by the
///    time this node's 8-box test and leaf work retire, the next node is
///    usually in flight;
///  * interior children are buffered and pushed in reverse slot order, so
///    pops proceed in ascending slot order — the BFS build allocates a
///    parent's children at consecutive indices, making consecutive pops
///    walk consecutive node addresses.
/// A CullingProgram's bound is read once per ray and again after every IS
/// call; each node step and leaf test uses the bound current at that
/// moment.
template <typename Program>
void trace_one_compressed(const WideBvh& bvh, const Ray& ray, std::uint32_t ray_id,
                          Program& program, LaunchStats& stats, std::uint32_t* stack,
                          MemoryHierarchy* mem = nullptr) {
  constexpr bool kCull = CullingProgram<Program>;
  const auto nodes = bvh.compressed_nodes();
  const auto leaves = bvh.leaves();
  const auto prim_order = bvh.prim_order();
  const auto ordered_prim_aabbs = bvh.ordered_prim_aabbs();
  const Vec3 inv_dir = reciprocal_dir(ray);
  float delta = 0.0f;  // the cull bound; stays 0 (no culling) unless kCull
  if constexpr (kCull) delta = program.cull_shrink(ray_id);
  std::uint32_t sp = 0;
  stack[sp++] = bvh.root();
  while (sp > 0) {
    const std::uint32_t node_id = stack[--sp];
    if (sp > 0) RTNN_PREFETCH(&nodes[stack[sp - 1]]);
    const CompressedWideNode& node = nodes[node_id];
    if (mem) {
      mem->access_range(node_id * sizeof(CompressedWideNode), sizeof(CompressedWideNode));
    }
    ++stats.node_visits;
    stats.aabb_tests += node.count;
    std::uint32_t mask = slot_hits<kCull>(node, ray, inv_dir, delta) & node.valid_mask();
    std::uint32_t pushes[kWideBvhWidth];
    std::uint32_t n_push = 0;
    while (mask != 0) {
      const auto slot = static_cast<std::uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
      if (node.is_leaf_slot(slot)) {
        const std::uint32_t s = leaves[node.leaf_index(slot)];
        if (mem) mem->access_range(kOrderedPrimRegionBase + s * sizeof(Aabb), sizeof(Aabb));
        ++stats.aabb_tests;
        if (!box_hit<kCull>(ray, ordered_prim_aabbs[s], inv_dir, delta)) continue;
        ++stats.is_calls;
        if (program.intersect(ray_id, prim_order[s]) == TraceAction::kTerminate) {
          ++stats.terminated_rays;
          return;
        }
        if constexpr (kCull) delta = program.cull_shrink(ray_id);
      } else {
        pushes[n_push++] = node.child_index(slot);
      }
    }
    RTNN_DCHECK(sp + n_push <= kWideStackDepth, "wide traversal stack overflow");
    for (std::uint32_t i = n_push; i > 0; --i) stack[sp++] = pushes[i - 1];
  }
}

/// Shader shim between a tile's bottom-level walk and the caller's
/// program: BLAS primitive ids are tile-local slots, so intersect()
/// remaps them through the tile's id list before forwarding. kTerminate
/// is latched so the TLAS walk can stop popping top-level nodes — the
/// inner walk already returned, and its stats (including
/// terminated_rays) were counted exactly once. A cull bound is per ray,
/// not per primitive, so it forwards unchanged.
template <typename Program>
struct TileProgram {
  Program& inner;
  const std::uint32_t* to_global;
  bool terminated = false;

  TraceAction intersect(std::uint32_t ray_id, std::uint32_t local_prim) {
    const TraceAction action = inner.intersect(ray_id, to_global[local_prim]);
    if (action == TraceAction::kTerminate) terminated = true;
    return action;
  }

  float cull_shrink(std::uint32_t ray_id)
    requires CullingProgram<Program>
  {
    return inner.cull_shrink(ray_id);
  }
};

/// Single-ray two-level traversal: a binary stack walk of the top tree
/// culls whole tiles; each intersected tile leaf lazily builds (first
/// route) and then runs the ordinary compressed BLAS walk with ids
/// remapped to global. Candidate sets match the monolithic path because
/// tile bounds contain every member AABB — top-level culling only skips
/// tiles the ray provably misses — and tiles partition the primitives, so
/// the union of per-tile candidates is exactly the monolithic candidate
/// set. A cull bound applies to the top tree too: tile bounds are exactly
/// the union of their member cubes, so a tile whose bounds fail the shrunk
/// test holds no primitive the program would accept (and is never built
/// for that ray). `wide_stack` is the caller's kWideStackDepth scratch
/// reused by every BLAS walk (tiles traverse one at a time).
template <typename Program>
void trace_one_tiled(const TiledBvh& tlas, const Ray& ray, std::uint32_t ray_id,
                     Program& program, LaunchStats& stats, std::uint32_t* wide_stack) {
  constexpr bool kCull = CullingProgram<Program>;
  const Bvh& top = tlas.top();
  if (top.empty()) return;
  std::uint32_t stack[kMaxStackDepth];
  std::uint32_t sp = 0;
  stack[sp++] = top.root();
  const auto nodes = top.nodes();
  const auto tile_order = top.prim_order();
  const Vec3 inv_dir = reciprocal_dir(ray);
  float delta = 0.0f;  // the cull bound; stays 0 (no culling) unless kCull
  if constexpr (kCull) delta = program.cull_shrink(ray_id);
  while (sp > 0) {
    const BvhNode& node = nodes[stack[--sp]];
    ++stats.node_visits;
    ++stats.aabb_tests;
    if (!box_hit<kCull>(ray, node.bounds, inv_dir, delta)) continue;
    if (node.is_leaf()) {
      const TiledBvh::Tile& tile = tlas.tile(tile_order[node.first]);
      const WideBvh& index = tile.ensure_index(tlas.aabb_width());
      TileProgram<Program> tp{program, tile.prim_ids().data()};
      trace_one_compressed(index, ray, ray_id, tp, stats, wide_stack);
      if (tp.terminated) return;
      if constexpr (kCull) delta = program.cull_shrink(ray_id);
    } else {
      RTNN_DCHECK(sp + 2 <= kMaxStackDepth, "traversal stack overflow");
      stack[sp++] = node.left;
      stack[sp++] = node.right;
    }
  }
}

/// Lockstep traversal of one group of `lane_count` (up to 32) rays as a
/// warp: lane l walks launch index first + l, whose ray it makes with
/// `source` before the warp starts.
template <typename RaySource, typename Program>
void trace_warp(const Bvh& bvh, std::uint32_t first, std::uint32_t lane_count,
                RaySource& source, Program& program, LaunchStats& stats,
                MemoryHierarchy* mem) {
  LaneState lanes[kGroupSize];
  for (std::uint32_t l = 0; l < lane_count; ++l) {
    lanes[l].ray = source(first + l);
    lanes[l].ray_id = first + l;
    lanes[l].stack[lanes[l].sp++] = bvh.root();
  }
  ++stats.warps;
  const auto nodes = bvh.nodes();

  for (;;) {
    // Each active lane pops its next node; the warp then serializes over
    // the set of distinct nodes popped this iteration.
    std::uint32_t popped[kGroupSize];
    std::uint32_t active_lanes[kGroupSize];
    std::uint32_t n_active = 0;
    for (std::uint32_t l = 0; l < lane_count; ++l) {
      if (!lanes[l].active()) continue;
      popped[n_active] = lanes[l].stack[--lanes[l].sp];
      active_lanes[n_active] = l;
      ++n_active;
    }
    if (n_active == 0) break;
    ++stats.warp_iterations;

    std::uint32_t done[kGroupSize] = {};  // lanes already handled this iteration
    for (std::uint32_t i = 0; i < n_active; ++i) {
      if (done[i]) continue;
      const std::uint32_t node_id = popped[i];
      // One serialized sub-step: every lane that wants this node executes
      // together. Each lane issues its own node fetch — lanes sharing the
      // line hit in cache, which is how coalescing shows up as the high
      // hit rates of coherent warps (paper Figure 6).
      ++stats.warp_substeps;
      const BvhNode& node = nodes[node_id];
      for (std::uint32_t j = i; j < n_active; ++j) {
        if (done[j] || popped[j] != node_id) continue;
        done[j] = 1;
        ++stats.active_lane_slots;
        if (mem) mem->access(node_id * kNodeStride);
        LaneState& lane = lanes[active_lanes[j]];
        ++stats.node_visits;
        ++stats.aabb_tests;
        const Ray& ray = lane.ray;
        if (!ray_intersects_aabb(ray, node.bounds)) continue;
        if (node.is_leaf()) {
          if (process_leaf(bvh, node, ray, lane.ray_id, program, stats, mem) ==
              TraceAction::kTerminate) {
            lane.terminated = true;
            ++stats.terminated_rays;
          }
        } else {
          RTNN_DCHECK(lane.sp + 2 <= kMaxStackDepth, "traversal stack overflow");
          lane.stack[lane.sp++] = node.left;
          lane.stack[lane.sp++] = node.right;
        }
      }
    }
  }
}

/// The launch driver every walk runs under. A chunk is a run of whole
/// groups (at least grain::kWarp of them) on one thread, and
/// `walk(first, count, stats, stack, mem)` walks each of its groups in
/// turn. The chunk's groups share one wide stack and one LaunchStats. A
/// cache-simulated launch runs as one chunk through one MemoryHierarchy,
/// so its hit rates are exact.
template <typename Walk>
LaunchStats run_groups(std::uint32_t n, bool simulate_caches, Walk&& walk) {
  StatsAccumulator accumulator;
  const auto run_chunk = [&](std::int64_t lo, std::int64_t hi) {
    LaunchStats local;
    std::optional<MemoryHierarchy> mem;
    if (simulate_caches) mem.emplace();
    std::uint32_t stack[kWideStackDepth];
    for (std::int64_t g = lo; g < hi; ++g) {
      const auto first = static_cast<std::uint32_t>(g) * kGroupSize;
      walk(first, std::min(kGroupSize, n - first), local, stack, mem ? &*mem : nullptr);
    }
    if (mem) {
      local.l1 = mem->l1_stats();
      local.l2 = mem->l2_stats();
    }
    accumulator.local() += local;
  };
  const std::int64_t groups = (std::int64_t{n} + kGroupSize - 1) / kGroupSize;
  if (simulate_caches) {
    run_chunk(0, groups);
  } else {
    parallel_for_chunks(0, groups, run_chunk, grain::kWarp);
  }
  LaunchStats total = accumulator.reduce();
  total.rays = n;
  return total;
}

}  // namespace detail

/// Launches `n` rays against `tree` — a binary Bvh (in either execution
/// model), a WideBvh or a TiledBvh — and invokes `program.intersect(ray_id,
/// prim_id)` per candidate primitive. Ray i is `source(i)`, made on the
/// thread that walks it. The source and the Program must be safe to call
/// concurrently for different ray_ids (each ray writes its own output
/// slots, the same contract a CUDA kernel has). Lazy tiles of a TiledBvh
/// are built on first route from inside the launch (thread-safe, built
/// once).
template <typename Tree, typename RaySource, typename Program>
  requires std::is_invocable_r_v<Ray, RaySource&, std::uint32_t>
LaunchStats trace(const Tree& tree, std::uint32_t n, RaySource&& source, Program& program,
                  const TraceConfig& config = {}) {
  constexpr bool kBinary = std::is_same_v<Tree, Bvh>;
  const bool lockstep = config.model == ExecutionModel::kWarpLockstep;
  if constexpr (kBinary) {
    RTNN_CHECK(lockstep || !config.simulate_caches,
               "cache simulation requires the warp-lockstep execution model");
  } else {
    RTNN_CHECK(!lockstep, "warp-lockstep simulation walks the binary BVH");
    RTNN_CHECK(config.use_compressed, "the compressed layout is the only wide layout");
    RTNN_CHECK((std::is_same_v<Tree, WideBvh>) || !config.simulate_caches,
               "cache simulation is not supported on the tiled BVH; simulate the "
               "monolithic wide or binary walk");
  }
  if (n == 0 || tree.empty()) {
    LaunchStats empty;
    empty.rays = n;
    return empty;
  }
  if constexpr (kBinary) {
    if (lockstep) {
      return detail::run_groups(
          n, config.simulate_caches,
          [&](std::uint32_t first, std::uint32_t count, LaunchStats& stats, std::uint32_t*,
              MemoryHierarchy* mem) {
            detail::trace_warp(tree, first, count, source, program, stats, mem);
          });
    }
  }
  // Each ray is made just before it is walked.
  return detail::run_groups(
      n, config.simulate_caches,
      [&](std::uint32_t first, std::uint32_t count, LaunchStats& stats, std::uint32_t* stack,
          MemoryHierarchy* mem) {
        for (std::uint32_t id = first; id < first + count; ++id) {
          if constexpr (kBinary) {
            detail::trace_one(tree, source(id), id, program, stats);
          } else if constexpr (std::is_same_v<Tree, WideBvh>) {
            detail::trace_one_compressed(tree, source(id), id, program, stats, stack, mem);
          } else {
            detail::trace_one_tiled(tree, source(id), id, program, stats, stack);
          }
        }
      });
}

/// The same launch over rays the caller made: ray i is rays[i].
template <typename Tree, typename Program>
LaunchStats trace(const Tree& tree, std::span<const Ray> rays, Program& program,
                  const TraceConfig& config = {}) {
  return trace(tree, static_cast<std::uint32_t>(rays.size()),
               [rays](std::uint32_t i) { return rays[i]; }, program, config);
}

}  // namespace rtnn::rt
