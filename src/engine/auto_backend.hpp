// Cost-model-driven backend dispatch.
//
// AutoBackend answers every search() through whichever substrate the
// default CostModel predicts to be cheapest for the workload at hand.
// Workload statistics come from the same GridIndex the partitioner uses:
// N, Q, and the sampled point population of a query-centered 2r box (the
// density term ρ·S³ of the paper's eq. 4).
//
// Candidates and their predicted costs (seconds):
//   brute_force   k2 · N · Q                      one sphere test per pair
//   grid          g1 · N + k3 · Q · E_scan        counting-sort build + the
//                                                 27/8-inflated cell scan
//   rtnn          k1 · N + kIS · Q · E_box        BVH build + predicted IS
//                                                 calls (k2 for KNN, k3 for
//                                                 range)
// where E_box is the sampled mean population of the 2r query box and
// E_scan = E_box · 27/8 (a 3r scan volume over a 2r sample volume).
// Octree and fastrnn are never predicted fastest on this substrate (the
// octree's pointer-chasing and the naive mapping's monolithic 2r BVH are
// both dominated), so they are not candidates.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/search_backend.hpp"
#include "rtnn/cost_model.hpp"
#include "rtnn/grid_index.hpp"

namespace rtnn::engine {

/// The statistics AutoBackend dispatches on.
struct WorkloadStats {
  std::size_t n = 0;       // point count
  std::size_t q = 0;       // query count
  double e_box = 0.0;      // mean points inside a query-centered 2r box
  double density = 0.0;    // points per unit volume inside that box
};

class AutoBackend final : public SearchBackend {
 public:
  AutoBackend();

  std::string_view name() const override { return "auto"; }
  BackendCaps caps() const override {
    return {.range = true, .knn = true, .dynamic = true, .snapshot = true};
  }
  void set_points(std::span<const Vec3> points) override;
  /// Dynamic lifecycle, forwarded: candidates that were already
  /// materialized receive the move as update_points() (refit where they
  /// can), so per-frame re-dispatch keeps amortizing index work.
  void update_points(std::span<const Vec3> points) override;
  std::size_t point_count() const override { return points_.size(); }
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report = nullptr) override;

  /// Member-wise snapshot: points and grid copy; every materialized
  /// candidate is snapshotted in turn (so the clone keeps amortizing
  /// whatever indexes dispatch already paid for).
  std::unique_ptr<SearchBackend> snapshot() const override;

  /// The backend the last search() dispatched to (empty before any call).
  std::string_view last_choice() const { return last_choice_; }

  /// Workload statistics gathered for `queries` (exposed for tests and
  /// introspection; also computed internally by search()).
  WorkloadStats measure(std::span<const Vec3> queries, const SearchParams& params);

  /// The name predict() would choose for the given statistics.
  std::string_view predict(const WorkloadStats& stats, const SearchParams& params) const;

 private:
  SearchBackend& acquire(std::string_view name);

  std::vector<Vec3> points_;
  GridIndex stats_grid_;
  bool stats_grid_valid_ = false;

  struct Slot {
    std::unique_ptr<SearchBackend> backend;
    std::uint64_t points_generation = 0;  // last generation uploaded
    std::uint64_t upload_lineage = 0;     // set_points lineage of that upload
  };
  std::vector<std::pair<std::string, Slot>> backends_;
  std::uint64_t generation_ = 0;  // bumped by every points change
  std::uint64_t lineage_ = 0;     // bumped only by set_points (count resets)
  std::string last_choice_;
};

}  // namespace rtnn::engine
