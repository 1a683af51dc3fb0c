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
/// by the dispatcher of `generation` (the one current at publish), never
/// mutated by writers (they clone the master instead), so in-flight
/// batches, snapshot publishes and a restarted dispatcher never share
/// mutable state.
struct Snapshot {
  std::uint64_t version = 0;
  std::uint64_t generation = 0;
  std::unique_ptr<engine::SearchBackend> backend;
};

/// Everything one in-flight request carries between submit() and get().
/// The submitter owns a reference through the Ticket; the dispatcher
/// fills the outcome and settle() records the error and fires `done`.
/// After the signal the dispatcher never touches the state again, so the
/// waiter reads without a lock.
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
  /// The master's index is synced with `points` by a warm probe. Written
  /// under update_mutex; the dispatcher's first read skips the lock.
  std::atomic<bool> master_synced{false};

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

/// Coalescing caps per tick: a batch dispatches as soon as it holds this
/// many query rows (or requests), even if the tick is not over.
constexpr std::size_t kMaxBatchQueries = std::size_t{1} << 15;
constexpr std::size_t kMaxBatchRequests = 1024;

/// Syncs `backend`'s base-width index with a one-point search at
/// `params`. The probe runs scheduling_only(), so it launches at exactly
/// 2r·aabb_scale — the width of the index a backend keeps — whatever flags
/// the requests carry: a partitioned probe may launch only narrower units
/// and leave that index unbuilt. `report` keeps the index work; the
/// probe's launch counters are dropped, as its one ray serves no row.
void warm_index(engine::SearchBackend& backend, const Vec3& probe, SearchParams params,
                NeighborSearch::Report& report) {
  params.opts = OptimizationFlags::scheduling_only();
  (void)backend.search(std::span<const Vec3>(&probe, 1), params, &report);
  report.stats = rt::LaunchStats{};
}

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
  dispatcher_ = std::thread([this] { run_dispatcher(0); });
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
  // A retired dispatcher still winding down finds the queue closed when it
  // hands its batch back, and settles it as kShutdown.
  std::lock_guard<std::mutex> dispatcher_lock(dispatcher_mutex_);
  if (retired_dispatcher_.joinable()) retired_dispatcher_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
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
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const CloudPtr& cloud : clouds_) {
    if (cloud->name == name) return CloudHandle(cloud);
  }
  throw Error("unknown cloud: " + name);
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

// --- Residency ---------------------------------------------------------------

std::shared_ptr<Snapshot> SearchService::build_cloud_locked(CloudState& cloud) {
  // Injection site for the build/publish step, placed before any state
  // changes hands: a fired fault leaves the cloud exactly as it was
  // (non-resident, old snapshot intact), so the next build just retries.
  RTNN_FAILPOINT("service.publish");
  cloud.master = make_cloud_backend(cloud.config);
  RTNN_CHECK(cloud.master->caps().snapshot,
             "backend cannot snapshot (caps().snapshot is false)");
  cloud.master->set_points(cloud.points);

  NeighborSearch::Report warm_report;
  if (cloud.config.warmup.has_value()) {
    warm_index(*cloud.master, cloud.points[0], *cloud.config.warmup, warm_report);
  }
  cloud.master_synced.store(cloud.config.warmup.has_value());

  std::shared_ptr<Snapshot> snap = publish(cloud, cloud.version.load());
  cloud.resident.store(true);
  charge(cloud, [&](ServiceStats& stats) {
    ++stats.builds;
    stats.report += warm_report;
  });
  return snap;
}

std::shared_ptr<Snapshot> SearchService::publish(CloudState& cloud,
                                                 std::uint64_t version) {
  auto snap = std::make_shared<Snapshot>();
  snap->version = version;
  snap->generation = dispatcher_generation_.load(std::memory_order_acquire);
  snap->backend = cloud.master->snapshot();
  std::lock_guard<std::mutex> lock(cloud.snapshot_mutex);
  cloud.snapshot = snap;
  return snap;
}

std::shared_ptr<Snapshot> SearchService::warm_master(CloudState& cloud,
                                                     std::shared_ptr<Snapshot> snap,
                                                     const SearchParams& params,
                                                     std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(cloud.update_mutex);
  if (dispatcher_stale(generation)) return nullptr;
  // Evicted since the pin, or warmed by a writer meanwhile: the pinned
  // snapshot serves.
  if (cloud.master == nullptr || cloud.master_synced.load()) return snap;
  NeighborSearch::Report warm_report;
  try {
    warm_index(*cloud.master, cloud.points[0], params, warm_report);
  } catch (const std::exception&) {
    // Params the backend rejects fail their own bin at launch; the
    // master stays unsynced for the next batch to warm.
    return snap;
  }
  cloud.master_synced.store(true);
  snap = publish(cloud, cloud.version.load());
  charge(cloud, [&](ServiceStats& stats) { stats.report += warm_report; });
  return dispatcher_stale(generation) ? nullptr : snap;
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

std::shared_ptr<Snapshot> SearchService::pin_snapshot(CloudState& cloud,
                                                      std::uint64_t generation) {
  // The published snapshot, if this dispatcher's generation owns it.
  const auto owned = [&]() -> std::shared_ptr<Snapshot> {
    std::lock_guard<std::mutex> lock(cloud.snapshot_mutex);
    if (cloud.snapshot == nullptr || cloud.snapshot->generation != generation) {
      return nullptr;
    }
    return cloud.snapshot;
  };
  if (std::shared_ptr<Snapshot> snap = owned()) return snap;

  // Not resident, or published under another generation: build on demand
  // or clone the intact master (copy-on-write accel sharing, no rebuild)
  // on the dispatcher's thread, then evict whatever that pushed past the
  // cap. A stale dispatcher gets nothing, before and after the wait: a
  // snapshot published after the restart belongs to the replacement.
  std::shared_ptr<Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(cloud.update_mutex);
    if (dispatcher_stale(generation)) return nullptr;
    snap = owned();  // a racing writer or build may have published already
    if (snap == nullptr) {
      snap = cloud.master != nullptr ? publish(cloud, cloud.version.load())
                                     : build_cloud_locked(cloud);
    }
  }
  if (dispatcher_stale(generation)) return nullptr;
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
  if (expired(state)) {
    settle(state, /*admitted=*/false, RejectReason::kDeadline,
           "deadline expired before submit on cloud '" + cloud->name + "'");
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
    settle(state, /*admitted=*/false, RejectReason::kAdmission,
           "request shed by admission control (" + std::string(refused) +
               ") on cloud '" + cloud->name + "'");
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

RequestOutcome SearchService::query(const CloudHandle& cloud,
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
    // backends refit; a resize = a fresh upload (a new index lineage).
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
    if (warm.has_value()) warm_index(*state->master, points[0], *warm, warm_report);
    state->master_synced.store(warm.has_value());

    // Publish-step injection site, before the version bump: a fired
    // fault throws to the writer with the old snapshot still published
    // and the version unchanged — readers never see the half-update, and
    // a retried update_points() succeeds cleanly.
    RTNN_FAILPOINT("service.publish");
    publish(*state, state->version.fetch_add(1) + 1);
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
        settle(request, /*admitted=*/true, RejectReason::kDeadline,
               "deadline expired before launch on cloud '" + request->cloud->name + "'");
        return;
      }
      total += request->queries.size();
      batch.push_back(std::move(request));
    };
    admit(std::move(*first));
    const auto tick_over = std::chrono::steady_clock::now() + config_.max_delay;
    while (batch.size() < kMaxBatchRequests && total < kMaxBatchQueries) {
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
    for (std::size_t g = 0; g < by_cloud.size(); ++g) {
      const auto& [cloud, group] = by_cloud[g];
      bool pinned = true;
      try {
        pinned = dispatch_cloud(cloud, group, generation);
      } catch (const std::exception& e) {
        // The dispatcher never dies: whatever a dispatch path threw past
        // its own handlers rejects the group's unserved members, typed.
        fail_requests(group, RejectReason::kBackend, e.what());
      }
      if (!pinned) {
        // Superseded while pinning (inside a demand build or republish):
        // hand this group and every later one back, as at the tick check.
        for (; g < by_cloud.size(); ++g) requeue_or_reject(by_cloud[g].second);
        return;
      }
      beat();
    }
  }
}

void SearchService::settle(const RequestPtr& request, bool admitted,
                           RejectReason reason, const std::string& error) {
  if (request->done.signaled()) return;  // served before a catch-all's throw
  request->reason = reason;
  request->error = error;
  const bool failed = !error.empty();
  charge(*request->cloud, [&](ServiceStats& stats) {
    if (admitted) ++stats.requests;
    if (failed && reason == RejectReason::kDeadline) ++stats.deadline_misses;
    if (failed && reason == RejectReason::kAdmission) ++stats.shed;
  });
  if (admitted) {
    request->cloud->pending.fetch_sub(1);
    pending_requests_.fetch_sub(1);
  }
  // Signal last: once `done` fires the waiter may destroy the state.
  request->done.signal();
}

void SearchService::fail_requests(const std::vector<RequestPtr>& requests,
                                  RejectReason reason, const std::string& message) {
  for (const RequestPtr& request : requests) {
    settle(request, /*admitted=*/true, reason, message);
  }
}

std::vector<SearchService::RequestPtr> SearchService::drop_expired(
    const std::vector<RequestPtr>& group) {
  std::vector<RequestPtr> live;
  live.reserve(group.size());
  for (const RequestPtr& request : group) {
    if (expired(request)) {
      settle(request, /*admitted=*/true, RejectReason::kDeadline,
             "deadline expired before launch on cloud '" + request->cloud->name + "'");
    } else {
      live.push_back(request);
    }
  }
  return live;
}

void SearchService::requeue_or_reject(const std::vector<RequestPtr>& requests) {
  for (const RequestPtr& request : requests) {
    // The queue closed while this thread was wedged: resolve the ticket
    // here, typed — shutdown semantics, never silence.
    if (!queue_.push(request)) {
      settle(request, /*admitted=*/true, RejectReason::kShutdown, "service is shut down");
    }
  }
}

bool SearchService::dispatch_cloud(const CloudPtr& cloud,
                                   const std::vector<RequestPtr>& group,
                                   std::uint64_t generation) {
  if (cloud->dropped.load()) {
    // drop_cloud() retired the tenant while these were queued: reject
    // the leftovers instead of serving from a released index.
    fail_requests(group, RejectReason::kShutdown,
                  "cloud '" + cloud->name + "' was dropped");
    return true;
  }

  std::shared_ptr<Snapshot> snap;
  try {
    snap = pin_snapshot(*cloud, generation);  // builds on demand when not resident
  } catch (const std::exception& e) {
    fail_requests(group, RejectReason::kBackend, e.what());
    return true;
  }
  if (snap == nullptr) return false;  // superseded: the group goes back
  if (!cloud->master_synced.load()) {
    snap = warm_master(*cloud, std::move(snap), group.front()->params, generation);
    if (snap == nullptr) return false;
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
  if (live.empty()) return true;

  // One optimizer pass over the cloud's whole tick. With batch_reorder
  // off the bins are the same — one per batch_key() — but keep arrival
  // order and never dedup.
  std::vector<BatchRequest> requests;
  requests.reserve(live.size());
  for (const RequestPtr& request : live) {
    requests.push_back({request->queries, request->params});
  }
  BatchOptimizerOptions opt;
  opt.reorder = cloud->config.batch_reorder;
  const BatchPlan plan = optimize_batch(requests, opt);

  for (const BatchBin& bin : plan.bins) {
    NeighborSearch::Report report;
    std::string error;  // empty: the bin served
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
    } catch (const std::exception& e) {
      // A rejected bin fails only its own members; the tick's other bins
      // still serve.
      error = e.what();
    }

    const bool served = error.empty();
    charge(*cloud, [&](ServiceStats& stats) {
      ++stats.batches;
      // Failed bins count requests (settle() counts each as it signals)
      // but not rows: `queries` counts rows served as the clients
      // submitted them (pre-dedup), so the report's ray counter sees
      // queries - queries_deduped of them.
      if (served) stats.queries += bin.merged_queries;
      stats.report += report;
    });
    if (served) {
      // Only params the backend accepted may warm the writer path: a
      // rejected request must not poison the next update's probe search.
      std::lock_guard<std::mutex> lock(cloud->stats_mutex);
      cloud->warm_params = bin.params;
    }
    for (const std::size_t id : bin.request_ids) {
      settle(live[id], /*admitted=*/true, RejectReason::kBackend, error);
    }
    beat();  // heartbeat per launch: a multi-bin tick is alive, not stalled
  }

  // Tick-level charge: the optimizer ran once for all bins, so its wall
  // time lands in the cloud and service totals, not any single bin's
  // report.
  charge(*cloud, [&](ServiceStats& stats) { stats.report.time.opt += plan.seconds; });
  return true;
}

// --- Robustness: watchdog, health -------------------------------------------

void SearchService::watchdog_loop() {
  // The sampling period (also the health() staleness granularity), in
  // microseconds so a millisecond timeout never samples in a busy loop.
  const auto interval = std::chrono::microseconds(config_.stall_timeout) / 4;
  std::uint64_t last_beat = dispatcher_beat_.load();
  bool winding_down = false;  // a retired dispatcher has yet to be joined
  std::optional<std::chrono::steady_clock::time_point> stall_since;
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!stopped_.load()) {
    watchdog_cv_.wait_for(lock, interval);
    if (stopped_.load()) return;

    // One wedge, one restart: while the retired dispatcher winds down,
    // detection stays off. Its replacement is idle (the retired thread
    // holds the batch) or blocked behind it (on the update mutex of the
    // demand build the retired thread is inside), and restarting the
    // replacement too would only churn threads. Once the retired thread
    // has returned, join it and re-arm from a fresh sample.
    if (winding_down) {
      if (!retired_returned_.load()) continue;
      {
        std::lock_guard<std::mutex> dispatcher_lock(dispatcher_mutex_);
        retired_dispatcher_.join();
      }
      winding_down = false;
      last_beat = dispatcher_beat_.load();
      stall_since.reset();
      continue;
    }

    // Stalled = work outstanding AND no heartbeat progress for a full
    // stall window *observed by this loop*. An idle dispatcher does not
    // beat — the pending check keeps idleness from reading as a stall.
    const std::uint64_t now_beat = dispatcher_beat_.load();
    if (now_beat != last_beat) {
      last_beat = now_beat;
      stall_since.reset();
      dispatcher_stalled_.store(false);
      continue;
    }
    if (pending_requests_.load() == 0) {
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
      winding_down = true;
      stall_since.reset();
    }
  }
}

void SearchService::run_dispatcher(std::uint64_t generation) {
  dispatch_loop(generation);
  // Only a retired thread returns while the watchdog runs: the current
  // one returns only once shutdown() has closed the queue.
  retired_returned_.store(true);
}

void SearchService::restart_dispatcher() {
  std::lock_guard<std::mutex> lock(dispatcher_mutex_);
  // The generation bump is what retires the old thread: it observes
  // dispatcher_stale() at its next check (the tick, or a pin that has to
  // build or republish), re-enqueues its unserved requests, and returns;
  // the watchdog joins it then (or shutdown() does). The wedged thread may
  // be inside a launch holding backend scratch, but every snapshot it can
  // search carries the old generation, so the replacement republishes a
  // clone from the master before its first search on each cloud. The
  // returned flag is cleared before the bump, so the retired thread's
  // return, which follows its reading of the bump, is what sets it.
  retired_returned_.store(false);
  const std::uint64_t next =
      dispatcher_generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  retired_dispatcher_ = std::move(dispatcher_);
  dispatcher_ = std::thread([this, next] { run_dispatcher(next); });
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
