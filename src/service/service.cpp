#include "service/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/failpoint.hpp"
#include "engine/backends.hpp"
#include "engine/registry.hpp"
#include "rtnn/batch_optimizer.hpp"

namespace rtnn::service {

namespace detail {

/// One published index version of one cloud: `backend` is searched only
/// by the dispatcher thread, never mutated by writers (they clone the
/// master instead), so in-flight batches and snapshot publishes never
/// share mutable state.
struct Snapshot {
  std::uint64_t version = 0;
  std::unique_ptr<engine::SearchBackend> backend;
};

/// Everything one in-flight request carries between submit() and get().
/// The submitter owns a reference through the Ticket; the dispatcher
/// fills outcome/error and fires `done`. After the signal the dispatcher
/// never touches the state again, so the waiter reads without a lock.
struct RequestState {
  std::shared_ptr<CloudState> cloud;
  std::vector<Vec3> queries;  // copied at submit: the caller's span may die
  SearchParams params;
  /// Latest instant the launch may still start (RequestOptions::deadline).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  RequestOutcome outcome;
  std::string error;  // non-empty when the request failed
  RejectReason reason = RejectReason::kBackend;
  CompletionEvent done;
};

/// One tenant of the registry. Locks, never taken together except in the
/// stated order: registry_mutex_ is never held while taking a cloud's
/// update_mutex (eviction collects candidates under the registry lock,
/// then try-locks victims after releasing it), so registry scans and
/// per-cloud writers cannot deadlock.
struct CloudState {
  std::string name;
  CloudConfig config;

  /// Writer state: the authoritative points and the master backend that
  /// owns the index lineage (null while the cloud is not resident —
  /// evicted or not yet built). Guarded by update_mutex; never searched
  /// by readers.
  std::mutex update_mutex;
  std::vector<Vec3> points;
  std::unique_ptr<engine::SearchBackend> master;

  /// The published snapshot readers pin (swapped atomically under its
  /// own mutex so publishes never wait on dispatches). Null while not
  /// resident.
  mutable std::mutex snapshot_mutex;
  std::shared_ptr<Snapshot> snapshot;

  std::atomic<std::uint64_t> version{0};   // bumped by every update_points()
  std::atomic<bool> resident{false};       // a built index currently exists
  std::atomic<bool> dropped{false};
  std::atomic<std::uint64_t> last_used{0}; // LRU tick (service use_clock_)
  std::atomic<std::size_t> pending{0};     // admitted, not yet signaled

  std::mutex admission_mutex;
  TokenBucket bucket;

  mutable std::mutex stats_mutex;
  ServiceStats stats;
  /// Params of the most recent successful dispatch — what update_points()
  /// warms the refreshed index with (guarded by stats_mutex).
  std::optional<SearchParams> warm_params;
};

}  // namespace detail

namespace {

using detail::CloudState;
using detail::RequestState;
using detail::Snapshot;
using RequestPtr = std::shared_ptr<RequestState>;

/// The backend a cloud's config asks for: the named engine backend, with
/// the cloud's tiling knobs forwarded so a large cloud's base index
/// becomes a TLAS over Morton tiles. Only the full rtnn engine owns the
/// tiled lifecycle; other backends ignore them.
std::unique_ptr<engine::SearchBackend> make_cloud_backend(const CloudConfig& config) {
  std::unique_ptr<engine::SearchBackend> backend = engine::make_backend(config.backend);
  if (config.tile_threshold > 0) {
    if (auto* rtnn = dynamic_cast<engine::RtnnBackend*>(backend.get())) {
      TileOptions tiling;
      tiling.tile_threshold = config.tile_threshold;
      tiling.max_tiles = config.max_tiles;
      tiling.lazy_build = config.lazy_tile_build;
      rtnn->core().set_tiling(tiling);
    }
  }
  return backend;
}

bool expired(const RequestPtr& request) {
  return request->deadline.has_value() &&
         std::chrono::steady_clock::now() >= *request->deadline;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- CloudHandle -------------------------------------------------------------

const std::string& CloudHandle::name() const {
  RTNN_CHECK(state_ != nullptr, "empty cloud handle");
  return state_->name;
}

// --- Ticket ------------------------------------------------------------------

bool SearchService::Ticket::ready() const {
  RTNN_CHECK(state_ != nullptr, "empty ticket");
  return state_->done.signaled();
}

void SearchService::Ticket::wait() const {
  RTNN_CHECK(state_ != nullptr, "empty ticket");
  state_->done.wait();
}

bool SearchService::Ticket::wait_for(std::chrono::nanoseconds timeout) const {
  RTNN_CHECK(state_ != nullptr, "empty ticket");
  return state_->done.wait_for(timeout);
}

RequestOutcome SearchService::Ticket::get() {
  RTNN_CHECK(state_ != nullptr, "empty ticket");
  state_->done.wait();
  if (!state_->error.empty()) throw ServiceError(state_->reason, state_->error);
  return std::move(state_->outcome);
}

std::optional<RequestOutcome> SearchService::Ticket::try_get() {
  RTNN_CHECK(state_ != nullptr, "empty ticket");
  if (!state_->done.signaled()) return std::nullopt;
  if (!state_->error.empty()) throw ServiceError(state_->reason, state_->error);
  return std::move(state_->outcome);
}

// --- Construction / lifecycle ------------------------------------------------

SearchService::SearchService(const ServiceConfig& config) : config_(config) {
  RTNN_CHECK(config_.max_batch_queries > 0 && config_.max_batch_requests > 0,
             "batch caps must be positive");
  RTNN_CHECK(config_.stall_timeout.count() == 0 ||
                 config_.watchdog_interval.count() > 0,
             "the watchdog needs a positive sampling interval");
  dispatcher_ = std::thread([this] { dispatch_loop(0); });
  if (config_.stall_timeout.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

SearchService::~SearchService() { shutdown(); }

void SearchService::shutdown() {
  // Serialized so concurrent shutdown calls cannot both join; the
  // dispatcher never touches lifecycle_mutex_, so joining under it
  // cannot deadlock. Requests already queued are served by the drain.
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  {
    // Set under the watchdog's mutex so it either sees the flag before
    // waiting or is inside the wait and gets the notify.
    std::lock_guard<std::mutex> watchdog_lock(watchdog_mutex_);
    stopped_.store(true);
  }
  watchdog_cv_.notify_all();
  // The watchdog goes first: once joined, no further restart can swap
  // dispatcher_ out from under the joins below.
  if (watchdog_.joinable()) watchdog_.join();
  queue_.close();  // dispatcher drains what is queued, then exits
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> dispatcher_lock(dispatcher_mutex_);
    workers = std::move(retired_dispatchers_);
    retired_dispatchers_.clear();
    if (dispatcher_.joinable()) workers.push_back(std::move(dispatcher_));
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

// --- Stats -------------------------------------------------------------------

template <typename Update>
void SearchService::charge(CloudState& cloud, const Update& update) {
  {
    std::lock_guard<std::mutex> lock(cloud.stats_mutex);
    update(cloud.stats);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  update(stats_);
}

// --- Registry ----------------------------------------------------------------

CloudHandle SearchService::register_cloud(const std::string& name,
                                          std::span<const Vec3> points,
                                          const CloudConfig& config) {
  RTNN_CHECK(!name.empty(), "a cloud needs a name");
  // Typed rejection at the door, before any state exists: an empty cloud
  // has no bounds to index, and a non-finite point would break every
  // spatial structure's bounds (the backends throw too, untyped).
  if (points.empty() || !all_finite(points)) {
    throw ServiceError(RejectReason::kInvalid,
                       "register_cloud('" + name + "'): a cloud needs finite points");
  }
  if (stopped_.load()) throw ServiceError(RejectReason::kShutdown,
                                          "service is shut down");
  {
    // Early duplicate check so a losing caller fails before paying for
    // a build; the insert below re-checks under the same lock.
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const CloudPtr& cloud : clouds_) {
      RTNN_CHECK(cloud->name != name, "cloud '" + name + "' already registered");
    }
  }

  auto state = std::make_shared<CloudState>();
  state->name = name;
  state->config = config;
  state->points.assign(points.begin(), points.end());
  state->bucket = TokenBucket(config.admission.tokens_per_second,
                              config.admission.burst);
  // Validate the backend choice now, whether or not the build is
  // deferred: an unknown name or a snapshot-less backend must fail at
  // registration, not at the first request.
  RTNN_CHECK(make_cloud_backend(config)->caps().snapshot,
             "backend cannot snapshot (caps().snapshot is false)");

  if (config.build_on_register) {
    // The state is not yet visible to any other thread, so this lock is
    // uncontended; build_cloud_locked still expects it held.
    std::lock_guard<std::mutex> lock(state->update_mutex);
    build_cloud_locked(*state);
  }

  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const CloudPtr& cloud : clouds_) {
      RTNN_CHECK(cloud->name != name, "cloud '" + name + "' already registered");
    }
    clouds_.push_back(state);
  }
  state->last_used.store(use_clock_.fetch_add(1) + 1);
  try {
    enforce_residency_cap(state.get());
  } catch (const std::exception&) {
    // Registration already succeeded; a failed eviction pass is
    // housekeeping, not a registration error. The cap re-enforces at the
    // next build; health() counts the miss.
    eviction_failures_.fetch_add(1);
  }
  return CloudHandle(state);
}

void SearchService::drop_cloud(const std::string& name) {
  CloudPtr state;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = std::find_if(clouds_.begin(), clouds_.end(),
                           [&](const CloudPtr& c) { return c->name == name; });
    RTNN_CHECK(it != clouds_.end(), "unknown cloud: " + name);
    state = *it;
    clouds_.erase(it);
  }
  // Mark first: requests already queued are rejected by the dispatcher
  // (kShutdown), new submits through stale handles throw. Then release
  // the index — outside the registry lock, per the locking order.
  state->dropped.store(true);
  {
    std::lock_guard<std::mutex> lock(state->update_mutex);
    state->master.reset();
    std::lock_guard<std::mutex> snap_lock(state->snapshot_mutex);
    state->snapshot.reset();
    state->resident.store(false);
  }
}

std::vector<std::string> SearchService::list_clouds() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    names.reserve(clouds_.size());
    for (const CloudPtr& cloud : clouds_) names.push_back(cloud->name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

CloudHandle SearchService::cloud(const std::string& name) const {
  return CloudHandle(resolve(name));
}

std::size_t SearchService::resident_clouds() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::size_t count = 0;
  for (const CloudPtr& cloud : clouds_) {
    if (cloud->resident.load()) ++count;
  }
  return count;
}

SearchService::CloudPtr SearchService::resolve(const CloudHandle& handle) const {
  RTNN_CHECK(handle.state_ != nullptr, "empty cloud handle");
  return handle.state_;
}

SearchService::CloudPtr SearchService::resolve(std::string_view name) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const CloudPtr& cloud : clouds_) {
    if (cloud->name == name) return cloud;
  }
  throw Error("unknown cloud: " + std::string(name));
}

// --- Residency ---------------------------------------------------------------

void SearchService::build_cloud_locked(CloudState& cloud) {
  // Injection site for the build/publish step, placed before any state
  // changes hands: a fired fault leaves the cloud exactly as it was
  // (non-resident, old snapshot intact), so the next build just retries.
  RTNN_FAILPOINT("service.publish");
  cloud.master = make_cloud_backend(cloud.config);
  RTNN_CHECK(cloud.master->caps().snapshot,
             "backend cannot snapshot (caps().snapshot is false)");
  cloud.master->set_index_persistence(true);
  cloud.master->set_points(cloud.points);

  NeighborSearch::Report warm_report;
  if (cloud.config.warmup.has_value()) {
    const Vec3 probe = cloud.points[0];
    (void)cloud.master->search(std::span<const Vec3>(&probe, 1),
                               *cloud.config.warmup, &warm_report);
  }

  auto snap = std::make_shared<Snapshot>();
  snap->version = cloud.version.load();
  snap->backend = cloud.master->snapshot();
  {
    std::lock_guard<std::mutex> lock(cloud.snapshot_mutex);
    cloud.snapshot = std::move(snap);
  }
  cloud.resident.store(true);
  charge(cloud, [&](ServiceStats& stats) {
    ++stats.builds;
    stats.report += warm_report;
  });
}

void SearchService::enforce_residency_cap(const CloudState* keep) {
  if (config_.max_resident_clouds == 0) return;
  std::vector<CloudPtr> candidates;
  std::size_t resident = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const CloudPtr& cloud : clouds_) {
      if (!cloud->resident.load()) continue;
      ++resident;
      if (cloud.get() != keep) candidates.push_back(cloud);
    }
  }
  // Oldest last_used first: evict the coldest index until the cap holds.
  std::sort(candidates.begin(), candidates.end(),
            [](const CloudPtr& a, const CloudPtr& b) {
              return a->last_used.load() < b->last_used.load();
            });
  for (const CloudPtr& victim : candidates) {
    if (resident <= config_.max_resident_clouds) break;
    RTNN_FAILPOINT("service.evict");
    // try_lock: a victim mid-update or mid-build is hot, not cold — skip
    // it (and avoid any cross-cloud lock cycle).
    std::unique_lock<std::mutex> lock(victim->update_mutex, std::try_to_lock);
    if (!lock.owns_lock() || !victim->resident.load()) continue;
    victim->master.reset();
    {
      std::lock_guard<std::mutex> snap_lock(victim->snapshot_mutex);
      victim->snapshot.reset();  // in-flight pins keep their own reference
    }
    victim->resident.store(false);
    --resident;
    charge(*victim, [](ServiceStats& stats) { ++stats.evictions; });
  }
}

std::shared_ptr<Snapshot> SearchService::pin_snapshot(CloudState& cloud) {
  {
    std::lock_guard<std::mutex> lock(cloud.snapshot_mutex);
    if (cloud.snapshot != nullptr) return cloud.snapshot;
  }
  // Not resident: build on demand on the dispatcher's thread, then evict
  // whatever the build pushed past the cap.
  std::shared_ptr<Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(cloud.update_mutex);
    {
      std::lock_guard<std::mutex> snap_lock(cloud.snapshot_mutex);
      snap = cloud.snapshot;  // a racing writer may have built already
    }
    if (snap == nullptr && cloud.master != nullptr) {
      // Quarantined by a watchdog restart: the master is intact, so a
      // fresh clone (copy-on-write accel sharing) republishes without
      // paying for a rebuild — and without ever touching the backend
      // scratch the wedged dispatcher may still hold.
      auto next = std::make_shared<Snapshot>();
      next->version = cloud.version.load();
      next->backend = cloud.master->snapshot();
      std::lock_guard<std::mutex> snap_lock(cloud.snapshot_mutex);
      cloud.snapshot = next;
      snap = std::move(next);
    }
    if (snap == nullptr) {
      build_cloud_locked(cloud);
      std::lock_guard<std::mutex> snap_lock(cloud.snapshot_mutex);
      snap = cloud.snapshot;
    }
  }
  try {
    enforce_residency_cap(&cloud);
  } catch (const std::exception&) {
    // An eviction failure never fails the request path: the pinned
    // snapshot is valid, so serve now and re-enforce at the next build.
    eviction_failures_.fetch_add(1);
  }
  return snap;
}

// --- Request path ------------------------------------------------------------

SearchService::Ticket SearchService::submit_to(const CloudPtr& cloud,
                                               std::span<const Vec3> queries,
                                               const SearchParams& params,
                                               const RequestOptions& options) {
  if (queries.empty()) {
    throw ServiceError(RejectReason::kInvalid,
                       "cloud '" + cloud->name + "': a request needs queries");
  }
  if (stopped_.load()) throw ServiceError(RejectReason::kShutdown,
                                          "service is shut down");
  if (cloud->dropped.load()) {
    throw ServiceError(RejectReason::kShutdown,
                       "cloud '" + cloud->name + "' was dropped");
  }

  auto state = std::make_shared<RequestState>();
  state->cloud = cloud;
  state->queries.assign(queries.begin(), queries.end());
  state->params = params;
  state->deadline = options.deadline;

  // A deadline already over is resolved at the door, before admission —
  // a dead request must not consume a token. Counted like shed (a miss,
  // never a served request) since it was never queued.
  if (state->deadline.has_value() &&
      std::chrono::steady_clock::now() >= *state->deadline) {
    state->reason = RejectReason::kDeadline;
    state->error =
        "deadline expired before submit on cloud '" + cloud->name + "'";
    charge(*cloud, [](ServiceStats& stats) { ++stats.deadline_misses; });
    state->done.signal();
    return Ticket(std::move(state));
  }

  // Admission: shed at the door instead of queueing, so overload cannot
  // grow the dispatcher's backlog. The ticket comes back already
  // rejected — get() throws the typed kAdmission error.
  const AdmissionOptions& admission = cloud->config.admission;
  const char* refused = nullptr;
  if (admission.max_queue_depth > 0 &&
      cloud->pending.load() >= admission.max_queue_depth) {
    refused = "queue depth cap";
  } else {
    std::lock_guard<std::mutex> lock(cloud->admission_mutex);
    if (!cloud->bucket.try_take(std::chrono::steady_clock::now())) {
      refused = "token bucket";
    }
  }
  if (refused != nullptr) {
    state->reason = RejectReason::kAdmission;
    state->error = "request shed by admission control (" + std::string(refused) +
                   ") on cloud '" + cloud->name + "'";
    charge(*cloud, [](ServiceStats& stats) { ++stats.shed; });
    state->done.signal();
    return Ticket(std::move(state));
  }

  cloud->pending.fetch_add(1);
  pending_requests_.fetch_add(1);
  if (!queue_.push(state)) {
    cloud->pending.fetch_sub(1);
    pending_requests_.fetch_sub(1);
    throw ServiceError(RejectReason::kShutdown, "service is shut down");
  }
  cloud->last_used.store(use_clock_.fetch_add(1) + 1);
  return Ticket(std::move(state));
}

SearchService::Ticket SearchService::submit(const CloudHandle& cloud,
                                            std::span<const Vec3> queries,
                                            const SearchParams& params,
                                            const RequestOptions& options) {
  return submit_to(resolve(cloud), queries, params, options);
}

SearchService::Ticket SearchService::submit(std::string_view cloud,
                                            std::span<const Vec3> queries,
                                            const SearchParams& params,
                                            const RequestOptions& options) {
  return submit_to(resolve(cloud), queries, params, options);
}

RequestOutcome SearchService::query(const CloudHandle& cloud,
                                    std::span<const Vec3> queries,
                                    const SearchParams& params,
                                    const RequestOptions& options) {
  return submit(cloud, queries, params, options).get();
}

RequestOutcome SearchService::query(std::string_view cloud,
                                    std::span<const Vec3> queries,
                                    const SearchParams& params,
                                    const RequestOptions& options) {
  return submit(cloud, queries, params, options).get();
}

// --- Writer path -------------------------------------------------------------

void SearchService::update_points(const CloudHandle& cloud,
                                  std::span<const Vec3> points) {
  if (points.empty() || !all_finite(points)) {
    throw ServiceError(RejectReason::kInvalid,
                       "update_points: an update needs finite points");
  }
  const CloudPtr state = resolve(cloud);
  if (stopped_.load()) throw ServiceError(RejectReason::kShutdown,
                                          "service is shut down");
  if (state->dropped.load()) {
    throw ServiceError(RejectReason::kShutdown,
                       "cloud '" + state->name + "' was dropped");
  }

  std::lock_guard<std::mutex> lock(state->update_mutex);
  // Writer heartbeat: health() flags a writer wedged inside this section
  // longer than the stall window (the watchdog cannot heal a caller's
  // thread, only surface it).
  writer_entered_ns_.store(steady_now_ns());
  writers_active_.fetch_add(1);
  struct WriterScope {
    std::atomic<int>& active;
    ~WriterScope() { active.fetch_sub(1); }
  } writer_scope{writers_active_};

  state->points.assign(points.begin(), points.end());

  NeighborSearch::Report warm_report;
  if (state->master != nullptr) {
    // The master absorbs the motion: same count = a move dynamic
    // backends refit; a resize = a fresh upload (new index lineage,
    // like the DynamicSearchSession resize fallback).
    if (points.size() == state->master->point_count()) {
      state->master->update_points(points);
    } else {
      state->master->set_points(points);
    }

    // Resolve the deferred index work here, on the writer's thread: a
    // one-probe search drives the refit-vs-rebuild policy (and rebuilds
    // the backend's auxiliary caches), so the published snapshot is warm
    // and the read path never pays for an update. Before the first
    // dispatch no params are known — the first batch on the new
    // snapshot syncs lazily.
    std::optional<SearchParams> warm;
    {
      std::lock_guard<std::mutex> stats_lock(state->stats_mutex);
      warm = state->warm_params;
    }
    if (warm.has_value()) {
      const Vec3 probe = points[0];
      (void)state->master->search(std::span<const Vec3>(&probe, 1), *warm,
                                  &warm_report);
    }

    // Publish-step injection site, before the version bump: a fired
    // fault throws to the writer with the old snapshot still published
    // and the version unchanged — readers never see the half-update, and
    // a retried update_points() succeeds cleanly.
    RTNN_FAILPOINT("service.publish");

    auto snap = std::make_shared<Snapshot>();
    snap->version = state->version.fetch_add(1) + 1;
    snap->backend = state->master->snapshot();
    std::lock_guard<std::mutex> snap_lock(state->snapshot_mutex);
    state->snapshot = std::move(snap);
  } else {
    // Non-resident (deferred or evicted): the stored points are the
    // whole truth, and the next build publishes this version.
    state->version.fetch_add(1);
  }

  charge(*state, [&](ServiceStats& stats) {
    ++stats.updates;
    stats.report += warm_report;  // refit/rebuild increments land here
  });
  state->last_used.store(use_clock_.fetch_add(1) + 1);
}

void SearchService::update_points(std::string_view cloud,
                                  std::span<const Vec3> points) {
  update_points(CloudHandle(resolve(cloud)), points);
}

// --- Introspection -----------------------------------------------------------

std::uint64_t SearchService::snapshot_version(const CloudHandle& cloud) const {
  return resolve(cloud)->version.load();
}

std::size_t SearchService::point_count(const CloudHandle& cloud) const {
  const CloudPtr state = resolve(cloud);
  std::lock_guard<std::mutex> lock(state->update_mutex);
  return state->points.size();
}

ServiceStats SearchService::stats(const CloudHandle& cloud) const {
  const CloudPtr state = resolve(cloud);
  std::lock_guard<std::mutex> lock(state->stats_mutex);
  return state->stats;
}

ServiceStats SearchService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

// --- Dispatcher --------------------------------------------------------------

void SearchService::dispatch_loop(std::uint64_t generation) {
  while (true) {
    if (dispatcher_stale(generation)) return;  // superseded while idle
    std::optional<RequestPtr> first = queue_.pop();
    if (!first.has_value()) return;  // closed and drained
    beat();

    // The batching tick: the oldest request waits at most max_delay for
    // company; the batch also dispatches as soon as a cap fills.
    // Requests found already expired mid-queue resolve here (kDeadline)
    // instead of riding into a launch they may no longer start.
    std::vector<RequestPtr> batch;
    std::size_t total = 0;
    const auto admit = [&](RequestPtr request) {
      if (expired(request)) {
        expire_request(request);
        return;
      }
      total += request->queries.size();
      batch.push_back(std::move(request));
    };
    admit(std::move(*first));
    const auto tick_over = std::chrono::steady_clock::now() + config_.max_delay;
    while (batch.size() < config_.max_batch_requests &&
           total < config_.max_batch_queries) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= tick_over) break;
      std::optional<RequestPtr> next = queue_.pop_for(tick_over - now);
      if (!next.has_value()) break;  // tick over (or closing: drain next loop)
      admit(std::move(*next));
    }
    if (batch.empty()) continue;  // the whole tick expired

    // Tick-level injection site: a kDelay here wedges the dispatcher
    // with the batch popped (what the watchdog test provokes); a kThrow
    // fails the tick — typed, never fatal to the thread.
    try {
      RTNN_FAILPOINT("service.dispatch.tick");
    } catch (const std::exception& e) {
      fail_requests(batch, RejectReason::kBackend, e.what());
      continue;
    }

    if (dispatcher_stale(generation)) {
      // Superseded mid-tick (the watchdog declared this thread stalled
      // and started a replacement): hand the in-flight batch back so
      // the replacement serves it — never abandon a ticket.
      requeue_or_reject(batch);
      return;
    }
    beat();

    // One tick may span tenants: requests group per cloud (arrival order
    // preserved within each), and every cloud-group dispatches against
    // its own pinned snapshot.
    std::vector<std::pair<CloudPtr, std::vector<RequestPtr>>> by_cloud;
    for (RequestPtr& request : batch) {
      const CloudPtr& cloud = request->cloud;
      auto fits = std::find_if(by_cloud.begin(), by_cloud.end(), [&](const auto& g) {
        return g.first == cloud;
      });
      if (fits == by_cloud.end()) {
        by_cloud.emplace_back(cloud, std::vector<RequestPtr>{}).second.push_back(
            std::move(request));
      } else {
        fits->second.push_back(std::move(request));
      }
    }
    for (const auto& [cloud, group] : by_cloud) {
      try {
        dispatch_cloud(cloud, group);
      } catch (const std::exception& e) {
        // The dispatcher never dies: whatever a dispatch path threw past
        // its own handlers rejects the group's unserved members, typed.
        fail_requests(group, RejectReason::kBackend, e.what());
      }
      beat();
    }
  }
}

void SearchService::reject(const RequestPtr& request, RejectReason reason,
                           const std::string& message) {
  if (request->done.signaled()) return;  // already served or rejected
  request->reason = reason;
  request->error = message;
  request->done.signal();
}

void SearchService::fail_requests(const std::vector<RequestPtr>& requests,
                                  RejectReason reason, const std::string& message) {
  for (const RequestPtr& request : requests) {
    if (request->done.signaled()) continue;  // served before the throw
    request->cloud->pending.fetch_sub(1);
    pending_requests_.fetch_sub(1);
    charge(*request->cloud, [](ServiceStats& stats) { ++stats.requests; });
    reject(request, reason, message);
  }
}

void SearchService::expire_request(const RequestPtr& request) {
  request->cloud->pending.fetch_sub(1);
  pending_requests_.fetch_sub(1);
  charge(*request->cloud, [](ServiceStats& stats) {
    ++stats.requests;
    ++stats.deadline_misses;
  });
  reject(request, RejectReason::kDeadline,
         "deadline expired before launch on cloud '" + request->cloud->name + "'");
}

std::vector<SearchService::RequestPtr> SearchService::drop_expired(
    const std::vector<RequestPtr>& group) {
  std::vector<RequestPtr> live;
  live.reserve(group.size());
  for (const RequestPtr& request : group) {
    if (expired(request)) {
      expire_request(request);
    } else {
      live.push_back(request);
    }
  }
  return live;
}

void SearchService::requeue_or_reject(std::vector<RequestPtr>& batch) {
  for (RequestPtr& request : batch) {
    if (request->done.signaled()) continue;
    if (!queue_.push(request)) {
      // The queue closed while this thread was wedged: resolve the
      // ticket here, typed — shutdown semantics, never silence.
      request->cloud->pending.fetch_sub(1);
      pending_requests_.fetch_sub(1);
      charge(*request->cloud, [](ServiceStats& stats) { ++stats.requests; });
      reject(request, RejectReason::kShutdown, "service is shut down");
    }
  }
}

void SearchService::dispatch_cloud(const CloudPtr& cloud,
                                   const std::vector<RequestPtr>& group) {
  if (cloud->dropped.load()) {
    // drop_cloud() retired the tenant while these were queued: reject
    // the leftovers instead of serving from a released index.
    fail_requests(group, RejectReason::kShutdown,
                  "cloud '" + cloud->name + "' was dropped");
    return;
  }

  std::shared_ptr<Snapshot> snap;
  try {
    snap = pin_snapshot(*cloud);  // builds on demand when not resident
  } catch (const std::exception& e) {
    fail_requests(group, RejectReason::kBackend, e.what());
    return;
  }
  cloud->last_used.store(use_clock_.fetch_add(1) + 1);

  // Launch-step injection site, after the pin: a kDelay here holds the
  // snapshot reference across an eviction (the LRU regression test), a
  // kThrow fails the group typed via the dispatcher's catch-all.
  RTNN_FAILPOINT("service.dispatch.launch");

  // The last deadline gate before work starts: the demand build above
  // may have taken longer than some member's budget allowed. Past this
  // point a request is launched, and a launch is never cancelled.
  const std::vector<RequestPtr> live = drop_expired(group);
  if (live.empty()) return;

  // One optimizer pass over the cloud's whole tick. With batch_reorder
  // off the bins are the same — batch_key() groups, capped by
  // max_bin_queries — but keep arrival order and never dedup.
  std::vector<BatchRequest> requests;
  requests.reserve(live.size());
  for (const RequestPtr& request : live) {
    requests.push_back({request->queries, request->params});
  }
  BatchOptimizerOptions opt;
  opt.reorder = opt.dedup = cloud->config.batch_reorder;
  opt.dedup_cell_scale = cloud->config.dedup_cell_scale;
  opt.max_bin_queries = cloud->config.max_bin_queries;
  const BatchPlan plan = optimize_batch(requests, opt);

  for (const BatchBin& bin : plan.bins) {
    NeighborSearch::Report report;
    bool served = false;
    try {
      // One launch per homogeneous bin, over its representatives only;
      // the scatter fans representative rows back out to every
      // duplicate and request slot.
      const NeighborResult rep_result =
          snap->backend->search(bin.queries, bin.params, &report);
      report.queries_deduped = bin.deduped;
      report.batch_bins = 1;
      std::vector<NeighborResult> results = bin.scatter(rep_result);
      for (std::size_t i = 0; i < bin.request_ids.size(); ++i) {
        RequestOutcome& outcome = live[bin.request_ids[i]]->outcome;
        outcome.result = std::move(results[i]);
        outcome.report = report;
        outcome.snapshot_version = snap->version;
        outcome.batch_requests = static_cast<std::uint32_t>(bin.request_ids.size());
        outcome.batch_queries = bin.merged_queries;
      }
      served = true;
    } catch (const std::exception& e) {
      // A rejected bin fails only its own members; the tick's other bins
      // still serve.
      for (const std::size_t id : bin.request_ids) {
        live[id]->reason = RejectReason::kBackend;
        live[id]->error = e.what();
      }
    }

    charge(*cloud, [&](ServiceStats& stats) {
      ++stats.batches;
      stats.requests += bin.request_ids.size();
      // Failed bins count requests (their tickets are signaled) but not
      // rows: `queries` counts rows served as the clients submitted them
      // (pre-dedup), so the report's ray counter sees queries -
      // queries_deduped of them.
      if (served) stats.queries += bin.merged_queries;
      stats.report += report;
    });
    if (served) {
      // Only params the backend accepted may warm the writer path: a
      // rejected request must not poison the next update's probe search.
      std::lock_guard<std::mutex> lock(cloud->stats_mutex);
      cloud->warm_params = bin.params;
    }
    // Signal last: once `done` fires the waiter may destroy the state.
    for (const std::size_t id : bin.request_ids) {
      cloud->pending.fetch_sub(1);
      pending_requests_.fetch_sub(1);
      live[id]->done.signal();
    }
    beat();  // heartbeat per launch: a multi-bin tick is alive, not stalled
  }

  // Tick-level charge: the optimizer ran once for all bins, so its wall
  // time lands in the cloud and service totals, not any single bin's
  // report.
  charge(*cloud, [&](ServiceStats& stats) { stats.report.time.opt += plan.seconds; });
}

// --- Robustness: watchdog, health -------------------------------------------

void SearchService::watchdog_loop() {
  std::uint64_t last_beat = dispatcher_beat_.load();
  // After a restart, detection re-arms only at the replacement's first
  // beat: until the stale thread hands its batch back, the work is
  // outstanding but the replacement is legitimately idle, and restarting
  // again would only churn threads.
  bool armed = true;
  std::optional<std::chrono::steady_clock::time_point> stall_since;
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!stopped_.load()) {
    watchdog_cv_.wait_for(lock, config_.watchdog_interval);
    if (stopped_.load()) return;

    // Stalled = work outstanding AND no heartbeat progress for a full
    // stall window *observed by this loop*. An idle dispatcher does not
    // beat — the pending check keeps idleness from reading as a stall.
    const std::uint64_t now_beat = dispatcher_beat_.load();
    if (now_beat != last_beat) {
      last_beat = now_beat;
      stall_since.reset();
      armed = true;
      dispatcher_stalled_.store(false);
      continue;
    }
    if (!armed || pending_requests_.load() == 0) {
      stall_since.reset();
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (!stall_since.has_value()) {
      stall_since = now;
      continue;
    }
    if (now - *stall_since >= config_.stall_timeout) {
      dispatcher_stalled_.store(true);
      restart_dispatcher();
      stall_since.reset();
      armed = false;
      last_beat = dispatcher_beat_.load();
    }
  }
}

void SearchService::restart_dispatcher() {
  // Quarantine every published snapshot first: the wedged thread may be
  // inside a launch holding backend scratch, so the replacement must
  // never serve from the same backend objects. Masters are untouched —
  // pin_snapshot() republishes a fresh clone on the next dispatch.
  std::vector<CloudPtr> clouds;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    clouds = clouds_;
  }
  for (const CloudPtr& cloud : clouds) {
    std::lock_guard<std::mutex> lock(cloud->snapshot_mutex);
    cloud->snapshot.reset();
  }

  std::lock_guard<std::mutex> lock(dispatcher_mutex_);
  // The generation bump is what retires the old thread: it observes
  // dispatcher_stale() at its next check, re-enqueues its in-flight
  // batch, and exits; shutdown() joins it from retired_dispatchers_.
  const std::uint64_t next =
      dispatcher_generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  retired_dispatchers_.push_back(std::move(dispatcher_));
  dispatcher_ = std::thread([this, next] { dispatch_loop(next); });
  dispatcher_restarts_.fetch_add(1);
  dispatcher_stalled_.store(false);
}

ServiceHealth SearchService::health() const {
  ServiceHealth health;
  health.dispatcher_alive = !dispatcher_stalled_.load();
  health.dispatcher_restarts = dispatcher_restarts_.load();
  health.eviction_failures = eviction_failures_.load();
  health.queue_depth = queue_.size();
  health.pending_requests = pending_requests_.load();
  if (config_.stall_timeout.count() > 0 && writers_active_.load() > 0) {
    const std::int64_t held_ns = steady_now_ns() - writer_entered_ns_.load();
    health.writer_stalled =
        held_ns > std::chrono::duration_cast<std::chrono::nanoseconds>(
                      config_.stall_timeout)
                      .count();
  }
  return health;
}

}  // namespace rtnn::service
