// The serving layer: many named point clouds, many concurrent callers.
//
// Every entry point below the service — NeighborSearch::search() and the
// engine backends — is single-caller: one thread owns the index (kept
// across searches until the points change) and queries arrive as one
// monolithic array. SearchService
// turns that machinery into a concurrent multi-tenant request server:
//
//   * A *cloud registry* maps names to tenants: register_cloud() admits a
//     named cloud with its own backend choice, tiling, optimizer knobs,
//     and admission policy (CloudConfig); drop_cloud() retires it;
//     submit()/query()/update_points() address a cloud through the
//     CloudHandle register_cloud() or cloud(name) returned. Each cloud owns
//     its writer-side master backend and snapshot chain. Indexes build on
//     demand at the first request (or eagerly — build_on_register, with
//     an optional warmup probe); a master no probe has synced is warmed
//     with the first dispatched request's params and republished before
//     that search, so the index is built on the master, which every
//     later clone shares. A max_resident_clouds cap evicts the
//     least-recently-used cold index; evicted clouds keep their points
//     and rebuild transparently when traffic returns.
//   * Every cloud lives behind immutable, refcounted index snapshots
//     (publish-on-update atop the engine's SearchBackend::snapshot(),
//     which shares ox::Accel build products copy-on-write). Readers pin
//     the snapshot current at dispatch time; update_points() builds and
//     publishes the *next* snapshot on the writer's thread — readers are
//     never blocked and never observe a half-updated index.
//   * Clouds above CloudConfig::tile_threshold index as a two-level
//     *tiled* accel: Morton-contiguous tiles (rtnn/tile_plan.hpp), each
//     with its own bottom-level index, under one top-level tree — the
//     instance-over-GAS split of the RT stack. One launch walks both
//     levels, so answers and rays match the whole cloud, while an update
//     refits or rebuilds only the tiles its motion touched, and lazy
//     tiles build on first route. It is the one spatial decomposition.
//   * Requests from any number of threads are coalesced by one dispatcher
//     into batched launches, grouped per cloud per tick: each cloud's
//     pending requests run through the batch optimizer (bin by
//     batch_key() → Morton reorder → coincident dedup; with
//     CloudConfig::batch_reorder off, the same bins in arrival order and
//     no dedup), one backend search per bin. Results scatter back via
//     BatchBin::scatter.
//   * *Admission control* guards each cloud's door: a token bucket
//     (sustained rate + burst) and a pending-request cap
//     (AdmissionOptions). A request over either limit is shed at
//     submit() — its Ticket is already rejected, and Ticket::get()
//     throws ServiceError with RejectReason::kAdmission — instead of
//     being queued, so overload cannot grow the backlog and admitted
//     requests keep a flat p99 (measured by bench/serving_tenants.cpp).
//
// Error-state contract. Ticket::get()/try_get() throw ServiceError;
// reason() says which door refused. The full table:
//
//   reason      | thrown from          | meaning / when
//   ------------|----------------------|----------------------------------
//   kBackend    | get(), try_get()     | Admitted and dispatched, but the
//               |                      | cloud's backend rejected the bin
//               |                      | (params it cannot serve: caps
//               |                      | mismatch, approximate knobs on an
//               |                      | exact backend), a demand build
//               |                      | failed, or a fault was injected.
//               |                      | Only the request's bin (or its
//               |                      | cloud's group) failed; the tick's
//               |                      | other bins and clouds still serve.
//   kAdmission  | get(), try_get()     | Shed at submit() by the cloud's
//               |                      | token bucket or queue-depth cap.
//               |                      | Never queued, never dispatched;
//               |                      | retry later or at a lower rate.
//   kDeadline   | get(), try_get()     | The request's deadline expired
//               |                      | before its batch launched — at
//               |                      | submit() (already expired), in
//               |                      | the dispatcher's queue, or at
//               |                      | the pre-launch check. A request
//               |                      | whose launch already started is
//               |                      | served even if it finishes late.
//   kShutdown   | register_cloud(),    | The service shut down or the
//               | submit(), query(),   | cloud was dropped. Thrown
//               | update_points(),     | directly by entry points once
//               | get(), try_get()     | stopped; thrown from get() when
//               |                      | the drop landed while the
//               |                      | request was queued (drop_cloud
//               |                      | rejects the queue's leftovers
//               |                      | instead of serving them). A
//               |                      | shutdown drain still *serves*
//               |                      | requests admitted in time.
//   kInvalid    | register_cloud(),    | Malformed input refused at the
//               | update_points(),     | door: an empty point cloud (a
//               | submit(), query()    | cloud with no points has no
//               |                      | bounds to index by —
//               |                      | drop_cloud() is the way to
//               |                      | retire one), a point with a NaN
//               |                      | or infinite coordinate, or an
//               |                      | empty query span. Nothing was
//               |                      | registered, modified or queued.
//
// Never silent: every admitted ticket is eventually signaled — served,
// or rejected with one of the reasons above — even across a watchdog
// dispatcher restart, through one exit that signals it once and counts
// it by this table. A served answer is always exact; there are no
// partial answers.
//
// Robustness layer: every request may carry a deadline (RequestOptions),
// a watchdog restarts a stalled dispatcher (ServiceConfig::stall_timeout)
// and health() reports liveness, and deterministic failpoints
// (core/failpoint.hpp) are compiled into snapshot publish
// ("service.publish"), LRU eviction ("service.evict"), and the
// dispatcher tick and per-cloud launch ("service.dispatch.tick",
// "service.dispatch.launch") so every one of these recovery paths is
// testable on demand (tests/test_chaos.cpp). A fault at the launch site
// fails only its own cloud's group of the tick. A restart bumps the
// dispatcher generation, and a dispatcher searches only snapshots stamped
// with its own, so it never shares a backend with a wedged predecessor.
//
//   SearchService service;
//   CloudHandle city = service.register_cloud("city", city_points, {});
//   auto outcome = service.query(city, queries, params);     // sync
//   auto ticket = service.submit(city, queries, params);     // async
//   ... ticket.try_get() / ticket.get() ...
//   service.update_points(city, moved);            // writer path
//   service.drop_cloud("city");
//
// Reports aggregate per request rather than per call: each outcome
// carries the Report of the coalesced batch it rode in, and stats()
// exposes exactly-summed totals — service-wide or per cloud
// (stats(handle)); batch counters sum via Report::operator+=.
//
// Threading contract: every public method is safe from any thread.
// Backend search state is only ever touched by one dispatcher thread (a
// snapshot, by the generation it carries) and the update path (each
// cloud's master, under its writer lock), so the backends need no
// internal locking. Writers to different clouds never contend.
//
// See README.md ("Serving") for the registry lifecycle, tiled tenants,
// and the admission semantics, and
// examples/multi_tenant_demo.cpp for a full multi-tenant program.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/neighbor_result.hpp"
#include "core/parallel.hpp"
#include "core/vec3.hpp"
#include "engine/search_backend.hpp"
#include "rtnn/neighbor_search.hpp"
#include "rtnn/types.hpp"
#include "service/admission.hpp"

namespace rtnn::service {

/// Which door refused a request (ServiceError::reason(); full contract
/// in the header comment above).
enum class RejectReason : std::uint8_t {
  kBackend,    // dispatched, but the cloud's backend rejected the params
  kAdmission,  // shed at submit() by the token bucket / queue-depth cap
  kShutdown,   // service shut down or cloud dropped before serving
  kDeadline,   // the request's deadline expired before its launch started
  kInvalid,    // malformed registration/update (e.g. an empty point cloud)
};

/// What Ticket::get()/try_get() (and refused submits) throw. Derives
/// from rtnn::Error so existing catch sites keep working.
class ServiceError : public Error {
 public:
  ServiceError(RejectReason reason, const std::string& what)
      : Error(what), reason_(reason) {}
  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

/// Service-wide configuration (the dispatcher and the registry's
/// residency policy), fixed at construction.
struct ServiceConfig {
  /// The batching tick: how long the oldest pending request waits for
  /// company before its batch dispatches. 0 = dispatch immediately
  /// (degenerates to per-request launches; useful for tests).
  std::chrono::microseconds max_delay{200};
  /// Resident-index cap across the registry: at most this many clouds
  /// keep a built index at once; registering or rebuilding past the cap
  /// evicts the least-recently-used other cloud (its points survive and
  /// it rebuilds on the next request). 0 = never evict.
  std::size_t max_resident_clouds = 0;

  // --- Watchdog (self-healing dispatch) ---

  /// A dispatcher with work outstanding whose heartbeat (sampled every
  /// stall_timeout / 4) does not advance for this long is declared
  /// stalled: the watchdog starts a fresh dispatcher under the next
  /// generation (which republishes the snapshots it searches, so it never
  /// shares backend scratch with the wedged thread), and the stale one
  /// hands its in-flight requests back to the queue when it wakes —
  /// tickets are always resolved, never abandoned. One wedge costs one
  /// restart: detection stays off until the stale thread has returned
  /// (the watchdog then joins it). 0 (the default) disables the watchdog
  /// thread entirely. The timeout must comfortably
  /// exceed the longest legitimate batch: a restart while the old
  /// dispatcher is genuinely inside a launch re-runs that work.
  std::chrono::milliseconds stall_timeout{0};
};

/// Per-cloud configuration, fixed at register_cloud().
struct CloudConfig {
  /// Engine backend this cloud snapshots and serves (BackendRegistry
  /// name). Must declare caps().snapshot.
  std::string backend = "rtnn";

  // --- Index lifecycle ---

  /// Build the index at register_cloud(). false = build on demand:
  /// registration just stores the points, and the first request pays
  /// the build.
  bool build_on_register = true;
  /// Warm every build (registration, rebuild after eviction) with a
  /// one-probe search under these params, so the first real request
  /// never pays first-search lazy work. Without it the first dispatch
  /// warms the master with its own request's params.
  std::optional<SearchParams> warmup;

  // --- Two-level tiled index (rtnn::TileOptions) ---
  //
  // The one spatial decomposition for a large tenant. Only the rtnn
  // backend owns the tiled lifecycle; other backends ignore these knobs.

  /// Points per tile before this cloud's base index becomes a TLAS over
  /// Morton-contiguous tiles instead of one monolithic BVH. 0 = never
  /// tile. Answers are identical either way; an update then refits or
  /// rebuilds only the tiles its motion touched.
  std::size_t tile_threshold = 0;
  /// Upper bound on the tile count. 0 = unbounded.
  std::uint32_t max_tiles = 0;
  /// Defer each tile's bottom-level build until a query first routes to
  /// it; registration pays only tile bounds and the top-level tree.
  bool lazy_tile_build = true;

  // --- Admission control (see admission.hpp) ---

  AdmissionOptions admission;

  // --- Batch optimizer (the coherence pass over a tick's merged rows;
  // see rtnn/batch_optimizer.hpp) ---

  /// Morton-reorder and coincident-dedup each tick's bins (the default).
  /// Off = the same optimizer pass with both steps off: requests still
  /// bin by batch_key(), concatenated in arrival order. Results are
  /// identical either way — dedup only ever transfers between
  /// bitwise-coincident rows.
  bool batch_reorder = true;
};

/// Per-request options at submit() time.
struct RequestOptions {
  /// Latest instant the request's launch may still start. Expired
  /// requests are dropped — at submit(), mid-queue, or at the pre-launch
  /// check — with ServiceError(kDeadline) and counted in
  /// stats().deadline_misses; a launch already running is never
  /// cancelled, so a request can finish slightly after its deadline but
  /// never *start* after it. nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Convenience: a deadline `timeout` from now.
  static RequestOptions within(std::chrono::nanoseconds timeout) {
    RequestOptions options;
    options.deadline = std::chrono::steady_clock::now() + timeout;
    return options;
  }
};

/// Everything a served request gets back.
struct RequestOutcome {
  NeighborResult result;
  /// The aggregate Report of the coalesced launch this request rode in —
  /// its homogeneous bin (queries_deduped / batch_bins count that bin's
  /// activity). Shared by every request of the launch; there is no
  /// per-row attribution. Optimizer wall time is tick-level and charged
  /// to stats().report.time.opt.
  NeighborSearch::Report report;
  /// Version of the snapshot that answered (0 = the registration upload;
  /// each update_points() publishes the next version).
  std::uint64_t snapshot_version = 0;
  /// How many requests and query rows shared the dispatch (rows counted
  /// before dedup — what the clients submitted, not what was searched).
  std::uint32_t batch_requests = 0;
  std::size_t batch_queries = 0;
};

/// Exactly-summed totals — service-wide from stats(), per tenant from
/// stats(handle).
struct ServiceStats {
  std::uint64_t requests = 0;  // requests served (signaled), failed included
  std::uint64_t batches = 0;   // coalesced launches those requests rode in
                               // (one per homogeneous bin)
  std::uint64_t queries = 0;   // query rows served, pre-dedup (the report's ray
                               // counter sees queries - report.queries_deduped)
  std::uint64_t updates = 0;   // update_points() calls absorbed
  std::uint64_t shed = 0;      // requests rejected by admission control
                               // (not counted in `requests`: never dispatched)
  std::uint64_t builds = 0;    // index builds (registration, demand, rebuild)
  std::uint64_t evictions = 0; // resident indexes evicted by the LRU cap
  std::uint64_t deadline_misses = 0;  // requests dropped on an expired deadline
                                      // (in `requests` when dropped after being
                                      // queued; like `shed` when dropped at the
                                      // submit() door)
  /// Merged per-batch (and update-path warm) reports: times and counters
  /// sum exactly; sah_inflation is the worst observed.
  NeighborSearch::Report report;
};

/// Liveness snapshot from SearchService::health() — what an external
/// load balancer (or the watchdog's own log line) reads. Computed on
/// demand; meaningful whether or not the watchdog thread is running.
struct ServiceHealth {
  /// False while the dispatcher has work outstanding but its heartbeat
  /// has not advanced for a full stall window (always true when
  /// stall_timeout is 0: no stall definition, no verdict).
  bool dispatcher_alive = true;
  /// True while some update_points() call has been inside its cloud's
  /// writer section longer than the stall window. The watchdog cannot
  /// heal a caller's thread; it surfaces the stall here instead.
  bool writer_stalled = false;
  std::uint64_t dispatcher_restarts = 0;  // watchdog recoveries so far
  std::uint64_t eviction_failures = 0;    // LRU passes that threw (request
                                          // paths continue; cap enforcement
                                          // retries on the next build)
  std::size_t queue_depth = 0;            // requests waiting in the dispatcher
  std::size_t pending_requests = 0;       // admitted, not yet signaled

  bool healthy() const { return dispatcher_alive && !writer_stalled; }
};

namespace detail {
struct RequestState;
struct CloudState;
struct Snapshot;
}

/// A registered cloud, as returned by register_cloud() (or cloud()).
/// Cheap to copy; stays safely usable after drop_cloud() — operations
/// on a dropped cloud throw ServiceError(kShutdown).
class CloudHandle {
 public:
  CloudHandle() = default;
  bool valid() const { return state_ != nullptr; }
  const std::string& name() const;

 private:
  friend class SearchService;
  explicit CloudHandle(std::shared_ptr<detail::CloudState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::CloudState> state_;
};

class SearchService {
 public:
  /// Future for one submitted request. Movable; wait from any thread.
  /// Error states (what get()/try_get() throw) are documented in the
  /// header comment's error-state contract.
  class Ticket {
   public:
    Ticket() = default;

    /// True when this ticket refers to a real submission (a default-
    /// constructed or moved-from ticket is not usable).
    bool valid() const { return state_ != nullptr; }
    /// True once the request has been served or rejected (get() will
    /// not block).
    bool ready() const;
    /// Blocks until the request is served.
    void wait() const;
    /// Bounded wait; true when served within `timeout`.
    bool wait_for(std::chrono::nanoseconds timeout) const;
    /// Waits and moves the outcome out (call once). Throws ServiceError
    /// when the request failed — see the error-state contract.
    RequestOutcome get();
    /// Non-blocking get(): nullopt while the request is still pending;
    /// the outcome once served. Throws ServiceError exactly like get()
    /// when the request already failed.
    std::optional<RequestOutcome> try_get();

   private:
    friend class SearchService;
    explicit Ticket(std::shared_ptr<detail::RequestState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<detail::RequestState> state_;
  };

  /// An empty registry and a running dispatcher; add tenants with
  /// register_cloud().
  explicit SearchService(const ServiceConfig& config = {});
  ~SearchService();  // shutdown()

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  // --- Registry ---

  /// Admits a named cloud; the returned handle addresses it in every
  /// other call. Builds its index now (config.build_on_register, the
  /// default) or at the first request. Throws rtnn::Error for a
  /// duplicate name or a backend without caps().snapshot, and
  /// ServiceError for an empty cloud or a non-finite point (kInvalid) or
  /// once the service is shut down (kShutdown).
  CloudHandle register_cloud(const std::string& name, std::span<const Vec3> points,
                             const CloudConfig& config = {});
  /// Retires a cloud: its pending requests are rejected (kShutdown),
  /// its index is released, and outstanding handles turn into throwing
  /// handles. Unknown names throw.
  void drop_cloud(const std::string& name);
  /// Registered cloud names, sorted.
  std::vector<std::string> list_clouds() const;
  /// Handle lookup by name; throws for unknown names.
  CloudHandle cloud(const std::string& name) const;
  /// How many clouds currently hold a built (resident) index.
  std::size_t resident_clouds() const;

  // --- Request path ---

  /// Enqueues a request against `cloud`; the dispatcher coalesces it
  /// with other pending requests of that cloud into one batched launch.
  /// Sheds instead of queueing when the cloud's admission policy says so
  /// (the returned ticket is already rejected with kAdmission); a
  /// request whose RequestOptions::deadline is already over, or expires
  /// before its launch starts, resolves to ServiceError(kDeadline).
  /// Throws ServiceError(kInvalid) for an empty query span, and
  /// ServiceError(kShutdown) once the service is shut down or the cloud
  /// dropped.
  Ticket submit(const CloudHandle& cloud, std::span<const Vec3> queries,
                const SearchParams& params, const RequestOptions& options = {});

  /// Synchronous convenience: submit() + get().
  RequestOutcome query(const CloudHandle& cloud, std::span<const Vec3> queries,
                       const SearchParams& params, const RequestOptions& options = {});

  /// Writer path: moves `cloud` to `points` and publishes its next
  /// snapshot. Same count = a move (dynamic backends refit per the cost
  /// model's policy); a resize = a fresh upload and build. All index
  /// work runs on the calling thread — concurrent readers keep their
  /// pinned snapshot and are never blocked. Writers to the same cloud
  /// serialize among themselves; different clouds never contend. On a
  /// non-resident (evicted or not-yet-built) cloud this just replaces
  /// the stored points — the index catches up at the next build. An
  /// empty update or a non-finite point throws ServiceError(kInvalid)
  /// and leaves the cloud unchanged.
  void update_points(const CloudHandle& cloud, std::span<const Vec3> points);

  /// Version of the cloud's currently published snapshot.
  std::uint64_t snapshot_version(const CloudHandle& cloud) const;
  /// Point count of the cloud.
  std::size_t point_count(const CloudHandle& cloud) const;
  /// Per-tenant aggregate.
  ServiceStats stats(const CloudHandle& cloud) const;

  /// Service-wide aggregate (every cloud; exactly-summed counters).
  ServiceStats stats() const;

  /// Liveness snapshot: dispatcher heartbeat verdict, writer stall flag,
  /// watchdog restart count, queue depth. Safe from any thread; cheap.
  ServiceHealth health() const;

  /// Stops accepting requests, serves everything already queued
  /// (requests whose cloud was dropped are rejected with kShutdown),
  /// and joins the dispatcher. Idempotent; the destructor calls it.
  void shutdown();

 private:
  using RequestPtr = std::shared_ptr<detail::RequestState>;
  using CloudPtr = std::shared_ptr<detail::CloudState>;

  CloudPtr resolve(const CloudHandle& handle) const;
  Ticket submit_to(const CloudPtr& cloud, std::span<const Vec3> queries,
                   const SearchParams& params, const RequestOptions& options);

  /// Builds `cloud`'s master from its stored points and publishes it
  /// (caller must hold the cloud's update mutex). Counted as a build.
  std::shared_ptr<detail::Snapshot> build_cloud_locked(detail::CloudState& cloud);
  /// A snapshot's one entrance: swaps in a clone of `cloud`'s master
  /// stamped with `version` and the current dispatcher generation
  /// (caller must hold the cloud's update mutex).
  std::shared_ptr<detail::Snapshot> publish(detail::CloudState& cloud,
                                            std::uint64_t version);
  /// Evicts least-recently-used resident clouds (other than `keep`)
  /// until the cap holds.
  void enforce_residency_cap(const detail::CloudState* keep);
  /// The published snapshot if it carries `generation`, else a fresh
  /// clone or a demand build; null once that dispatcher is stale.
  std::shared_ptr<detail::Snapshot> pin_snapshot(detail::CloudState& cloud,
                                                 std::uint64_t generation);
  /// Before a search on a master whose index is not synced with its
  /// points (built without a warmup, or updated before any params were
  /// known): warms the master with `params` (the group's first request's)
  /// and republishes, so the index is built once, on the master, and
  /// every later clone — a restart's republish included — shares it.
  /// Returns the snapshot to search — `snap` when the master is already
  /// synced or rejects the params — or null once that dispatcher is stale.
  std::shared_ptr<detail::Snapshot> warm_master(detail::CloudState& cloud,
                                                std::shared_ptr<detail::Snapshot> snap,
                                                const SearchParams& params,
                                                std::uint64_t generation);

  /// The one stats rule: `update(ServiceStats&)` lands in `cloud`'s
  /// totals, then in the service-wide totals — each under its own stats
  /// lock, cloud first, never both held.
  template <typename Update>
  void charge(detail::CloudState& cloud, const Update& update);

  void dispatch_loop(std::uint64_t generation);
  /// Serves one cloud's share of a tick: one optimizer pass over its
  /// requests, one launch per bin. False (group untouched) once stale.
  bool dispatch_cloud(const CloudPtr& cloud, const std::vector<RequestPtr>& group,
                      std::uint64_t generation);
  /// A ticket's one exit and only signal: records `error` (empty =
  /// served), counts the request by the error table — `admitted` in
  /// `requests` and out of both pending gauges, a door refusal in `shed`,
  /// either in `deadline_misses` under kDeadline — and signals it once.
  void settle(const RequestPtr& request, bool admitted, RejectReason reason,
              const std::string& error);
  /// Settles each unsignaled request as a failure — the catch-all, so a
  /// throwing dispatch path never kills the thread or abandons a ticket.
  void fail_requests(const std::vector<RequestPtr>& requests, RejectReason reason,
                     const std::string& message);
  /// Settles `group` members whose deadline is over (kDeadline); returns
  /// the survivors in arrival order.
  std::vector<RequestPtr> drop_expired(const std::vector<RequestPtr>& group);

  // --- Watchdog (self-healing dispatch) ---
  void watchdog_loop();
  /// Runs dispatch_loop(generation), then marks the thread as returned
  /// (the watchdog joins a retired dispatcher only once it has).
  void run_dispatcher(std::uint64_t generation);
  /// Declares the current dispatcher stalled: bumps the generation (the
  /// stale one hands its batch back at its next check), retires it and
  /// starts a new one.
  void restart_dispatcher();
  /// A stale dispatcher hands its unsettled requests back (or settles them).
  void requeue_or_reject(const std::vector<RequestPtr>& requests);
  bool dispatcher_stale(std::uint64_t generation) const {
    return dispatcher_generation_.load(std::memory_order_acquire) != generation;
  }
  void beat() { dispatcher_beat_.fetch_add(1, std::memory_order_release); }

  ServiceConfig config_;

  mutable std::mutex registry_mutex_;
  std::vector<CloudPtr> clouds_;  // registration order; names unique

  WorkQueue<RequestPtr> queue_;
  std::atomic<bool> stopped_{false};
  std::mutex lifecycle_mutex_;  // serializes shutdown()

  /// Dispatcher lifecycle, guarded by dispatcher_mutex_ except the
  /// atomics: the current thread, and the retired one still winding down
  /// (at most one: the watchdog restarts no further until it has
  /// returned, then joins it).
  std::mutex dispatcher_mutex_;
  std::thread dispatcher_;
  std::thread retired_dispatcher_;
  std::atomic<bool> retired_returned_{false};  // set as a dispatcher returns
  std::atomic<std::uint64_t> dispatcher_generation_{0};
  std::atomic<std::uint64_t> dispatcher_beat_{0};   // advances once per tick
  std::atomic<std::uint64_t> dispatcher_restarts_{0};
  std::atomic<bool> dispatcher_stalled_{false};     // watchdog's last verdict
  std::atomic<std::size_t> pending_requests_{0};    // admitted, not signaled
  std::atomic<std::uint64_t> eviction_failures_{0};

  /// Writer liveness: how many update_points() calls are inside a writer
  /// section, and when the most recent one entered (steady_clock ns).
  std::atomic<int> writers_active_{0};
  std::atomic<std::int64_t> writer_entered_ns_{0};

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;

  std::atomic<std::uint64_t> use_clock_{0};  // LRU ordering for eviction

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;  // service-wide totals across all clouds
};

}  // namespace rtnn::service
