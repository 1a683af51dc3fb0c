// SearchBackend adapters over the five search implementations in this
// repo: exhaustive reference, uniform-grid (cuNSearch/FRNN analogs),
// octree (PCL analog), FastRNN (naive RT mapping), and full RTNN.
#pragma once

#include <memory>
#include <vector>

#include "baselines/brute_force.hpp"
#include "baselines/grid_search.hpp"
#include "baselines/octree.hpp"
#include "engine/search_backend.hpp"

namespace rtnn::engine {

/// O(N·Q) exhaustive reference ("brute_force").
class BruteForceBackend final : public SearchBackend {
 public:
  std::string_view name() const override { return "brute_force"; }
  BackendCaps caps() const override {
    return {.range = true, .knn = true, .snapshot = true};
  }
  void set_points(std::span<const Vec3> points) override;
  std::size_t point_count() const override { return points_.size(); }
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report) override;
  std::unique_ptr<SearchBackend> snapshot() const override {
    return std::make_unique<BruteForceBackend>(*this);
  }

 private:
  std::vector<Vec3> points_;
};

/// Uniform-grid search ("grid"): cuNSearch-style cell scan for range
/// queries, FRNN-style expanding shells for KNN, over one grid. The grid
/// is keyed by the search radius, so it is rebuilt lazily when the radius
/// changes between calls (or the points do).
class GridBackend final : public SearchBackend {
 public:
  std::string_view name() const override { return "grid"; }
  BackendCaps caps() const override {
    return {.range = true, .knn = true, .snapshot = true};
  }
  void set_points(std::span<const Vec3> points) override;
  std::size_t point_count() const override { return points_.size(); }
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report) override;
  std::unique_ptr<SearchBackend> snapshot() const override {
    return std::make_unique<GridBackend>(*this);
  }

 private:
  std::vector<Vec3> points_;
  baselines::GridRangeSearch grid_;
  float radius_ = -1.0f;  // radius the grid was built for
};

/// Octree search ("octree"), the PCL analog. Built once per point set.
class OctreeBackend final : public SearchBackend {
 public:
  std::string_view name() const override { return "octree"; }
  BackendCaps caps() const override {
    return {.range = true, .knn = true, .snapshot = true};
  }
  void set_points(std::span<const Vec3> points) override;
  std::size_t point_count() const override { return points_.size(); }
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report) override;
  std::unique_ptr<SearchBackend> snapshot() const override {
    return std::make_unique<OctreeBackend>(*this);
  }

 private:
  std::vector<Vec3> points_;
  baselines::Octree octree_;
  bool built_ = false;
};

/// The naive RT-core mapping ("fastrnn"): one monolithic BVH, input query
/// order, no partitioning or bundling — Evangelou et al.'s prior art. KNN
/// only, like the original.
class FastRnnBackend final : public SearchBackend {
 public:
  std::string_view name() const override { return "fastrnn"; }
  BackendCaps caps() const override {
    return {.knn = true, .launch_stats = true, .dynamic = true, .snapshot = true};
  }
  void set_points(std::span<const Vec3> points) override { search_.set_points(points); }
  /// Even the naive mapping refits: the reference rtnn code assumes the
  /// driver's AS update path for dynamic clouds.
  void update_points(std::span<const Vec3> points) override {
    search_.update_points(points);
  }
  std::size_t point_count() const override { return search_.point_count(); }
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report) override;
  std::unique_ptr<SearchBackend> snapshot() const override {
    return std::make_unique<FastRnnBackend>(*this);
  }
  void set_index_persistence(bool on) override { search_.set_index_persistence(on); }

 private:
  NeighborSearch search_;
};

/// Full RTNN ("rtnn"): scheduling + partitioning + bundling, as configured
/// by params.opts, including the approximate-search knobs.
class RtnnBackend final : public SearchBackend {
 public:
  std::string_view name() const override { return "rtnn"; }
  BackendCaps caps() const override {
    return {.range = true, .knn = true, .approximate = true, .launch_stats = true,
            .dynamic = true, .snapshot = true};
  }
  void set_points(std::span<const Vec3> points) override { search_.set_points(points); }
  /// Dynamic lifecycle: keeps the base-width accel across frames and lets
  /// the cost model refit or rebuild it (Report::time.refit / time.bvh).
  void update_points(std::span<const Vec3> points) override {
    search_.update_points(points);
  }
  std::size_t point_count() const override { return search_.point_count(); }
  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report) override {
    return search_.search(queries, params, report);
  }
  /// The snapshot is cheap: the accel's build product is shared
  /// copy-on-write (refitting either side replaces, never mutates, the
  /// shared data), so a publish costs the point/grid copies only.
  std::unique_ptr<SearchBackend> snapshot() const override {
    return std::make_unique<RtnnBackend>(*this);
  }
  void set_index_persistence(bool on) override { search_.set_index_persistence(on); }

  /// Supplies a calibrated cost model for bundling decisions.
  void set_cost_model(const CostModel& model) { search_.set_cost_model(model); }
  NeighborSearch& core() { return search_; }

 private:
  NeighborSearch search_;
};

}  // namespace rtnn::engine
