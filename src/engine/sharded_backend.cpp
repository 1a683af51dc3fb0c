#include "engine/sharded_backend.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/failpoint.hpp"
#include "core/timing.hpp"
#include "engine/registry.hpp"

namespace rtnn::engine {

ShardedBackend::ShardedBackend(std::string inner, const ShardingOptions& options)
    : inner_name_(std::move(inner)), options_(options) {
  // Probe the inner factory up front: an unknown name or an unsupported
  // cap should fail at construction, not at the first search.
  inner_caps_ = make_backend(inner_name_)->caps();
}

void ShardedBackend::set_points(std::span<const Vec3> points) {
  RTNN_CHECK(!points.empty(), "a sharded backend needs points");
  points_.assign(points.begin(), points.end());
  plan_ = plan_shards(points_, plan_shard_count(points_.size(),
                                               options_.shard_threshold,
                                               options_.max_shards));
  // Ascending ids within a shard: local id order is then global id
  // order, so each inner row is the shard's K smallest (dist², global id)
  // pairs and the gather's merge reproduces the unsharded row exactly.
  for (ShardPlan::Shard& shard : plan_.shards) {
    std::sort(shard.point_ids.begin(), shard.point_ids.end());
  }
  shards_.clear();
  std::vector<Vec3> shard_points;
  for (const ShardPlan::Shard& shard : plan_.shards) {
    shard_points.clear();
    shard_points.reserve(shard.point_ids.size());
    for (const std::uint32_t id : shard.point_ids) shard_points.push_back(points_[id]);
    std::unique_ptr<SearchBackend> backend = make_backend(inner_name_);
    backend->set_index_persistence(persist_);
    backend->set_points(shard_points);
    shards_.push_back(std::move(backend));
  }
}

void ShardedBackend::update_points(std::span<const Vec3> points) {
  RTNN_CHECK(!points.empty(), "an update needs points");
  if (points.size() != points_.size() || shards_.empty()) {
    set_points(points);  // a resize is a new upload, like everywhere else
    return;
  }
  points_.assign(points.begin(), points.end());
  plan_.cloud_bounds = Aabb{};
  std::vector<Vec3> shard_points;
  for (std::size_t s = 0; s < plan_.shards.size(); ++s) {
    ShardPlan::Shard& shard = plan_.shards[s];
    shard_points.clear();
    shard_points.reserve(shard.point_ids.size());
    shard.bounds = Aabb{};
    for (const std::uint32_t id : shard.point_ids) {
      shard_points.push_back(points_[id]);
      shard.bounds.grow(points_[id]);
    }
    plan_.cloud_bounds.grow(shard.bounds);
    shards_[s]->update_points(shard_points);
  }
}

bool ShardedBackend::search_shard_guarded(std::size_t shard,
                                          std::span<const Vec3> queries,
                                          const SearchParams& params, Report* report,
                                          NeighborResult* result) {
  // Bounded retry with exponential backoff: a transiently failing shard
  // (the failure model fault injection provokes) gets max_attempts
  // chances before the degradation policy decides between failing the
  // whole search and dropping this shard from the gather.
  const std::uint32_t attempts = std::max<std::uint32_t>(1, options_.max_attempts);
  std::chrono::nanoseconds backoff = options_.backoff;
  std::string last_error;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff.count() > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    try {
      RTNN_FAILPOINT("sharded.shard_search");
      Report shard_report;
      *result = shards_[shard]->search(queries, params,
                                       report ? &shard_report : nullptr);
      if (report) *report += shard_report;  // exact aggregation, like the service
      return true;
    } catch (const std::exception& e) {
      last_error = e.what();
      if (report && attempt + 1 < attempts) ++report->shard_retries;
    }
  }
  if (!options_.allow_degraded) {
    throw Error("shard " + std::to_string(shard) + "/" +
                std::to_string(shards_.size()) + " failed after " +
                std::to_string(attempts) + " attempt(s): " + last_error);
  }
  last_dropped_.push_back(static_cast<std::uint32_t>(shard));
  if (report) ++report->shards_dropped;
  return false;
}

NeighborResult ShardedBackend::search(std::span<const Vec3> queries,
                                      const SearchParams& params, Report* report) {
  RTNN_CHECK(!shards_.empty(), "set_points() before search()");
  last_dropped_.clear();
  if (shards_.size() == 1) {
    // Unsharded clouds pay nothing: straight delegation, byte-identical
    // to running the inner backend directly.
    return shards_[0]->search(queries, params, report);
  }

  // Scatter: route each query to the shards it can reach. Routing and
  // gather are reorganization work, so their wall time charges to the
  // Opt phase like the scheduler's reorder pass.
  Timer route_timer;
  // elide_sphere_test accepts anything inside the point AABBs — up to
  // sqrt(3)*r away — so the route must widen to match what the inner
  // searches can return.
  const float route_radius =
      params.elide_sphere_test ? params.radius * 1.7320508f : params.radius;
  const ShardRoute route = route_queries(plan_, queries, route_radius);
  total_fanout_ += route.fanout;
  if (report) report->time.opt += route_timer.elapsed();

  std::vector<ShardPartial> partials;
  std::vector<Vec3> shard_queries;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<std::uint32_t>& rows = route.rows[s];
    if (rows.empty()) continue;
    shard_queries.clear();
    shard_queries.reserve(rows.size());
    for (const std::uint32_t row : rows) shard_queries.push_back(queries[row]);
    ShardPartial partial;
    partial.rows = &rows;
    partial.point_ids = &plan_.shards[s].point_ids;
    if (!search_shard_guarded(s, shard_queries, params, report, &partial.result)) {
      continue;  // dropped from the gather (allow_degraded)
    }
    partials.push_back(std::move(partial));
  }

  Timer gather_timer;
  NeighborResult merged = gather_shard_results(points_, queries, params, partials);
  if (report) report->time.opt += gather_timer.elapsed();
  return merged;
}

std::unique_ptr<SearchBackend> ShardedBackend::snapshot() const {
  auto copy = std::make_unique<ShardedBackend>(inner_name_, options_);
  copy->inner_caps_ = inner_caps_;
  copy->persist_ = persist_;
  copy->points_ = points_;
  copy->plan_ = plan_;
  copy->total_fanout_ = total_fanout_;
  // last_dropped_ is per-search scratch; the clone starts clean.
  copy->shards_.reserve(shards_.size());
  for (const std::unique_ptr<SearchBackend>& shard : shards_) {
    std::unique_ptr<SearchBackend> clone = shard->snapshot();
    if (clone == nullptr) return nullptr;
    copy->shards_.push_back(std::move(clone));
  }
  return copy;
}

void ShardedBackend::set_index_persistence(bool on) {
  persist_ = on;
  for (const std::unique_ptr<SearchBackend>& shard : shards_) {
    shard->set_index_persistence(on);
  }
}

}  // namespace rtnn::engine
