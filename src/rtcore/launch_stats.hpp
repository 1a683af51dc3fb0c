// Per-launch hardware counters.
//
// These are the counters the paper reads off the real hardware (or infers,
// e.g. "statistics about the number of traversals are hidden by OptiX" —
// footnote 1): traversal steps, IS-shader invocations, warp occupancy,
// cache hit rates. Figures 6, 8 and the micro characterizations are
// regenerated from this struct.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "rtcore/cache_sim.hpp"

namespace rtnn::rt {

struct LaunchStats {
  std::uint64_t rays = 0;
  std::uint64_t node_visits = 0;     // BVH nodes popped ("TL" steps, RT-core work)
  std::uint64_t aabb_tests = 0;      // ray-AABB tests (node + leaf-primitive boxes)
  std::uint64_t is_calls = 0;        // IS-shader invocations (Step 2 of the algorithm)
  std::uint64_t terminated_rays = 0; // rays ended early by the AH shader

  // SIMT-mode counters (zero in independent mode).
  std::uint64_t warps = 0;
  std::uint64_t warp_iterations = 0;  // lockstep front-advance iterations
  std::uint64_t warp_substeps = 0;    // serialized unique-node executions
  std::uint64_t active_lane_slots = 0;  // sum over substeps of lanes executing

  CacheStats l1;
  CacheStats l2;

  /// SIMT lane utilization in [0,1] — the analog of "SM occupancy" in
  /// paper Figure 6: fraction of lane-slots doing useful work while the
  /// warp advances through its serialized node sub-steps.
  double occupancy() const {
    const std::uint64_t denom = warp_substeps * 32;
    return denom ? static_cast<double>(active_lane_slots) / static_cast<double>(denom) : 0.0;
  }

  double is_calls_per_ray() const {
    return rays ? static_cast<double>(is_calls) / static_cast<double>(rays) : 0.0;
  }

  double node_visits_per_ray() const {
    return rays ? static_cast<double>(node_visits) / static_cast<double>(rays) : 0.0;
  }

  LaunchStats& operator+=(const LaunchStats& o);
  bool operator==(const LaunchStats&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LaunchStats& s);

/// Lock-free per-worker LaunchStats accumulation for parallel launches.
/// Each worker bumps counters in its own cache-line-aligned slot (indexed
/// by worker_index()); the launch sums the slots once at the end. This
/// replaced the mutex-guarded merge that used to sit on the trace hot
/// path — per-thread counters cost nothing while rays are in flight.
class StatsAccumulator {
 public:
  StatsAccumulator() : slots_(static_cast<std::size_t>(std::max(num_threads(), 1))) {}

  /// The calling worker's slot. Valid inside a parallel region sized by
  /// num_threads() (the only configuration parallel_for creates) and on
  /// the serial path. A concurrent set_num_threads() could hand a worker
  /// an index past the slot count — asserted in debug; the release clamp
  /// only bounds the access (writes may then contend on the last slot).
  LaunchStats& local() {
    const auto w = static_cast<std::size_t>(worker_index());
    RTNN_DCHECK(w < slots_.size(), "worker index exceeds stats slots");
    return slots_[w < slots_.size() ? w : slots_.size() - 1].stats;
  }

  /// Sum of every worker's counters; call after the parallel region ends.
  LaunchStats reduce() const {
    LaunchStats total;
    for (const Slot& slot : slots_) total += slot.stats;
    return total;
  }

 private:
  struct alignas(64) Slot {
    LaunchStats stats;
  };
  std::vector<Slot> slots_;
};

}  // namespace rtnn::rt
