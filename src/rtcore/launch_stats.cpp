#include "rtcore/launch_stats.hpp"

#include <ostream>

namespace rtnn::rt {

LaunchStats& LaunchStats::operator+=(const LaunchStats& o) {
  rays += o.rays;
  node_visits += o.node_visits;
  aabb_tests += o.aabb_tests;
  is_calls += o.is_calls;
  terminated_rays += o.terminated_rays;
  warps += o.warps;
  warp_iterations += o.warp_iterations;
  warp_substeps += o.warp_substeps;
  active_lane_slots += o.active_lane_slots;
  l1 += o.l1;
  l2 += o.l2;
  return *this;
}

std::ostream& operator<<(std::ostream& os, const LaunchStats& s) {
  os << "{rays=" << s.rays << " node_visits=" << s.node_visits
     << " aabb_tests=" << s.aabb_tests << " is_calls=" << s.is_calls
     << " terminated=" << s.terminated_rays;
  if (s.warps) {
    os << " warps=" << s.warps << " substeps=" << s.warp_substeps
       << " occupancy=" << s.occupancy();
  }
  if (s.l1.accesses) {
    os << " L1=" << s.l1.hit_rate() << " L2=" << s.l2.hit_rate();
  }
  return os << '}';
}

}  // namespace rtnn::rt
