// SPH fluid density example — the cuNSearch motivating workload.
//
// Smoothed-particle hydrodynamics codes (the paper cites SPlisHSPlasH,
// which uses cuNSearch) call a fixed-radius neighbor search every timestep
// to evaluate kernel sums. This example runs a miniature dam-break:
// a block of fluid particles under gravity with a weakly-compressible
// equation of state, moving the particles in one NeighborSearch
// (update_points) for the per-timestep neighbor lists. Particle motion per
// step is tiny relative to the kernel support, so the search refits its
// acceleration structure in place frame over frame instead of rebuilding
// it — the report printed at the end shows the build/refit split.
//
//   ./sph_fluid [num_particles] [steps]
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "rtnn/rtnn.hpp"

namespace {

constexpr float kSupport = 0.08f;        // kernel support radius h
constexpr float kRestDensity = 1000.0f;
constexpr float kStiffness = 2.0f;
constexpr float kDt = 5.0e-4f;
constexpr float kDamping = 0.99f;
constexpr std::uint32_t kMaxNeighbors = 64;

// Poly6 kernel (Müller et al. 2003), 3D normalization.
float poly6(float r2, float h) {
  const float h2 = h * h;
  if (r2 >= h2) return 0.0f;
  const float diff = h2 - r2;
  const float h9 = h2 * h2 * h2 * h2 * h;
  return 315.0f / (64.0f * 3.14159265f * h9) * diff * diff * diff;
}

// Spiky kernel gradient magnitude factor.
float spiky_grad(float r, float h) {
  if (r >= h || r <= 1e-12f) return 0.0f;
  const float diff = h - r;
  const float h6 = h * h * h * h * h * h;
  return -45.0f / (3.14159265f * h6) * diff * diff;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t target = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20'000;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 10;

  // Dam-break block: particles on a cubic lattice in one corner of a tank.
  const int per_axis = static_cast<int>(std::cbrt(static_cast<double>(target)));
  const float spacing = kSupport * 0.5f;
  std::vector<rtnn::Vec3> pos;
  for (int z = 0; z < per_axis; ++z) {
    for (int y = 0; y < per_axis; ++y) {
      for (int x = 0; x < per_axis; ++x) {
        pos.push_back({static_cast<float>(x) * spacing, static_cast<float>(y) * spacing,
                       static_cast<float>(z) * spacing + 0.2f});
      }
    }
  }
  std::vector<rtnn::Vec3> vel(pos.size(), rtnn::Vec3{});
  std::cout << "SPH dam break: " << pos.size() << " particles, " << steps << " steps\n";

  // Calibrate the particle mass so the initial lattice sits at rest
  // density (a standard SPH setup step), using a first neighbor search.
  float particle_mass = 0.02f;

  rtnn::SearchParams params;
  params.mode = rtnn::SearchMode::kRange;
  params.radius = kSupport;
  params.k = kMaxNeighbors;
  // One persistent index for the whole run: the support radius is fixed
  // and particles move a fraction of it per step, the refit sweet spot.
  params.opts = rtnn::OptimizationFlags::none();

  rtnn::NeighborSearch search;
  search.set_points(pos);
  double search_seconds = 0.0;
  rtnn::TimeBreakdown time_totals;
  std::uint32_t refits = 0;
  std::uint32_t rebuilds = 0;
  for (int step = 0; step < steps; ++step) {
    // Neighbor lists for this configuration (the per-timestep search that
    // dominates SPH runtime): the moved particles go in as an update, and
    // the search refits or rebuilds the index per the refit policy.
    if (step > 0) search.update_points(pos);
    rtnn::NeighborSearch::Report report;
    const rtnn::NeighborResult neighbors = search.search(pos, params, &report);
    search_seconds += report.time.total();
    time_totals += report.time;
    refits += report.accel_refits;
    rebuilds += report.accel_rebuilds;

    // Density + pressure from neighbor sums.
    auto compute_density = [&](std::vector<float>& density) {
      for (std::size_t i = 0; i < pos.size(); ++i) {
        float rho = poly6(0.0f, kSupport) * particle_mass;  // self term
        for (const std::uint32_t j : neighbors.neighbors(i)) {
          if (j == i) continue;
          rho += particle_mass * poly6(rtnn::distance2(pos[i], pos[j]), kSupport);
        }
        density[i] = rho;
      }
    };
    std::vector<float> density(pos.size(), 0.0f);
    compute_density(density);
    if (step == 0) {
      double mean = 0.0;
      for (const float d : density) mean += d;
      mean /= static_cast<double>(density.size());
      particle_mass *= kRestDensity / static_cast<float>(mean);
      compute_density(density);
    }

    // Pressure forces + gravity, symplectic Euler, floor clamp. Negative
    // pressures are clamped (no cohesion) for stability.
    for (std::size_t i = 0; i < pos.size(); ++i) {
      const float pi = std::max(0.0f, kStiffness * (density[i] - kRestDensity));
      rtnn::Vec3 force{0.0f, 0.0f, -9.81f * particle_mass};
      for (const std::uint32_t j : neighbors.neighbors(i)) {
        if (j == i) continue;
        const rtnn::Vec3 d = pos[i] - pos[j];
        const float r = rtnn::length(d);
        const float pj = std::max(0.0f, kStiffness * (density[j] - kRestDensity));
        const float w = spiky_grad(r, kSupport);
        if (w != 0.0f && density[j] > 1e-6f) {
          force += d * (-particle_mass * (pi + pj) / (2.0f * density[j]) * w / r);
        }
      }
      vel[i] = (vel[i] + force * (kDt / particle_mass)) * kDamping;
      pos[i] += vel[i] * kDt;
      if (pos[i].z < 0.0f) {  // tank floor
        pos[i].z = 0.0f;
        vel[i].z *= -0.3f;
      }
    }

    if (step == 0 || step == steps - 1) {
      double mean_density = 0.0;
      for (const float d : density) mean_density += d;
      mean_density /= static_cast<double>(density.size());
      std::cout << "  step " << step << ": mean density " << mean_density
                << " kg/m^3, neighbors/particle "
                << static_cast<double>(neighbors.total_neighbors()) /
                       static_cast<double>(pos.size())
                << '\n';
    }
  }
  std::cout << "  neighbor-search time: " << search_seconds << " s total\n";
  std::cout << "  index lifecycle: 1 build + " << refits << " refits + " << rebuilds
            << " policy rebuilds (bvh " << time_totals.bvh << " s, refit "
            << time_totals.refit << " s)\n";
  return 0;
}
