#include "engine/auto_backend.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "engine/registry.hpp"

namespace rtnn::engine {

namespace {

/// Counting-sort grid construction cost per point. Measured on the same
/// substrate as the CostModel defaults (bench/micro_costmodel territory):
/// two passes over the points plus a cell scan.
constexpr double kGridBuildPerPoint = 5.0e-8;

/// Stats grid resolution cap: dispatch needs a density estimate, not the
/// partitioner's fine megacell grid.
constexpr std::uint64_t kStatsGridCells = std::uint64_t{1} << 18;

/// Queries sampled for the density estimate.
constexpr std::size_t kDensitySamples = 64;

}  // namespace

AutoBackend::AutoBackend() = default;

void AutoBackend::set_points(std::span<const Vec3> points) {
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  points_.assign(points.begin(), points.end());
  stats_grid_valid_ = false;
  ++generation_;
  ++lineage_;  // a fresh upload: stale slots must rebuild, not refit
}

void AutoBackend::update_points(std::span<const Vec3> points) {
  RTNN_CHECK(!points_.empty(), "set_points() before update_points()");
  RTNN_CHECK(points.size() == points_.size(),
             "update_points() requires the same point count");
  RTNN_CHECK(all_finite(points), "points must be finite (a NaN or infinite coordinate)");
  std::copy(points.begin(), points.end(), points_.begin());
  stats_grid_valid_ = false;  // density estimate tracks positions
  ++generation_;              // same lineage: stale slots may refit
}

std::unique_ptr<SearchBackend> AutoBackend::snapshot() const {
  auto copy = std::make_unique<AutoBackend>();
  copy->points_ = points_;
  copy->stats_grid_ = stats_grid_;
  copy->stats_grid_valid_ = stats_grid_valid_;
  copy->generation_ = generation_;
  copy->lineage_ = lineage_;
  copy->last_choice_ = last_choice_;
  for (const auto& [name, slot] : backends_) {
    Slot cloned;
    cloned.backend = slot.backend->snapshot();
    RTNN_CHECK(cloned.backend != nullptr, "auto candidate cannot snapshot");
    cloned.points_generation = slot.points_generation;
    cloned.upload_lineage = slot.upload_lineage;
    copy->backends_.emplace_back(name, std::move(cloned));
  }
  return copy;
}

SearchBackend& AutoBackend::acquire(std::string_view name) {
  for (auto& [existing, slot] : backends_) {
    if (existing == name) {
      if (slot.points_generation != generation_) {
        // Same lineage = the cloud only *moved* since this slot's upload
        // (any number of frames ago): deliver it as a move so dynamic
        // backends refit. A new lineage means a fresh upload.
        if (slot.upload_lineage == lineage_) {
          slot.backend->update_points(points_);
        } else {
          slot.backend->set_points(points_);
        }
        slot.points_generation = generation_;
        slot.upload_lineage = lineage_;
      }
      return *slot.backend;
    }
  }
  Slot slot;
  slot.backend = make_backend(name);
  slot.backend->set_points(points_);
  slot.points_generation = generation_;
  slot.upload_lineage = lineage_;
  backends_.emplace_back(std::string(name), std::move(slot));
  return *backends_.back().second.backend;
}

WorkloadStats AutoBackend::measure(std::span<const Vec3> queries,
                                   const SearchParams& params) {
  WorkloadStats stats;
  stats.n = points_.size();
  stats.q = queries.size();
  if (points_.empty() || queries.empty()) return stats;

  if (!stats_grid_valid_) {
    stats_grid_.build(points_, kStatsGridCells);
    stats_grid_valid_ = true;
  }

  // Mean population of the 2r box centered on a sampled query — the
  // paper's ρ·S³ density term, measured instead of assumed uniform.
  const std::size_t samples = std::min(queries.size(), kDensitySamples);
  const std::size_t stride = std::max<std::size_t>(1, queries.size() / samples);
  const float r = params.radius;
  double total = 0.0;
  std::size_t taken = 0;
  for (std::size_t i = 0; i < queries.size() && taken < samples; i += stride, ++taken) {
    const Vec3& center = queries[i];
    const Int3 lo = stats_grid_.cell_of({center.x - r, center.y - r, center.z - r});
    const Int3 hi = stats_grid_.cell_of({center.x + r, center.y + r, center.z + r});
    total += static_cast<double>(stats_grid_.count_in_box(lo, hi));
  }
  stats.e_box = taken > 0 ? total / static_cast<double>(taken) : 0.0;
  const double box_volume = 8.0 * static_cast<double>(r) * r * r;
  stats.density = box_volume > 0.0 ? stats.e_box / box_volume : 0.0;
  return stats;
}

std::string_view AutoBackend::predict(const WorkloadStats& stats,
                                      const SearchParams& params) const {
  const CostModel model{};
  const auto n = static_cast<double>(stats.n);
  const auto q = static_cast<double>(stats.q);

  // One sphere test per (point, query) pair.
  const double brute = model.k2 * n * q;

  // Counting-sort build + per-query scan of the 3r cell neighborhood
  // (27/8 the volume of the sampled 2r box).
  const double grid = kGridBuildPerPoint * n + model.k3_slow * q * stats.e_box * 27.0 / 8.0;

  // BVH build over N AABBs + one IS call per point in each query's 2r box.
  const double is_cost = params.mode == SearchMode::kKnn ? model.k2 : model.k3_slow;
  const double rtnn = model.k1 * n + is_cost * q * stats.e_box;

  if (brute <= grid && brute <= rtnn) return "brute_force";
  return grid <= rtnn ? "grid" : "rtnn";
}

NeighborResult AutoBackend::search(std::span<const Vec3> queries,
                                   const SearchParams& params, Report* report) {
  RTNN_CHECK(!points_.empty(), "set_points() before search()");
  // Fail deterministically up front: dispatch may pick an exact-only
  // candidate, so the approximate knobs are never honored here.
  RTNN_CHECK(params.aabb_scale == 1.0f && !params.elide_sphere_test,
             "AutoBackend answers exactly; approximate knobs not supported");
  check_radius(params.radius);  // before measure() sizes boxes by r
  const WorkloadStats stats = measure(queries, params);
  last_choice_ = predict(stats, params);
  return acquire(last_choice_).search(queries, params, report);
}

}  // namespace rtnn::engine
