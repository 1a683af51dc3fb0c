// The engine layer: one neighbor-search contract, many substrates.
//
// The paper frames neighbor search as a single bounded interface — radius
// r, neighbor cap K, range or KNN mode — served by interchangeable
// implementations (RT-core mapping, classic GPU grids, trees, exhaustive
// search). SearchBackend is that contract: every implementation in this
// repo adapts to it, BackendRegistry constructs them by name, and
// AutoBackend dispatches per call using the default cost model plus
// workload statistics.
//
// Contract:
//   * set_points() uploads the point set; it may be called repeatedly and
//     invalidates any previously built structure. Points must be finite:
//     set_points() and update_points() throw rtnn::Error on a NaN or
//     infinite coordinate (all_finite, core/vec3.hpp), before any
//     structure sees it — a NaN resets running bounds, so a spatial
//     structure over it silently drops real points.
//   * update_points() moves an already-uploaded set to new positions
//     (same count, same ids) — the dynamic-cloud lifecycle. Backends with
//     caps().dynamic refit their structures in place; the base-class
//     default falls back to set_points() (a full rebuild), so callers
//     drive frame sequences without ever branching on capability.
//   * search() answers `queries` under `params` (same SearchParams as the
//     RTNN core — mode, radius, k). Backends build their spatial index
//     lazily on first search and keep it for later searches until the
//     points change (or, for radius-keyed structures, the radius), so a
//     Report captures build cost in time.bvh, and pure query cost in
//     time.search.
//   * search() accepts one set of radii on every backend: r > 0, and in
//     float r·r > 0 and 2r finite (check_radius, rtnn/types.hpp). Any
//     other r — negative, NaN, infinite, one whose 2r overflows or whose
//     square underflows to 0 — throws rtnn::Error before any structure
//     is built, so no backend answers where the others cannot agree.
//   * Results use NeighborResult's bounded layout: at most K slots per
//     query. For range search with more than K true neighbors, *which* K
//     are returned is backend-defined (any within-radius subset is valid).
//     A KNN row is the K smallest (dist², point id) pairs within the
//     radius, in that order: a function of the point set alone, so every
//     backend returns the same bytes. params.store_indices = false
//     returns counts only.
//   * Queries may be non-finite: a query with a NaN or infinite
//     coordinate is within no radius of any point, so its row is empty,
//     on every backend and in both modes.
//   * caps() declares what the backend honors; callers must not request a
//     mode (or approximation knob) the backend does not support.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>

#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"
#include "rtnn/neighbor_search.hpp"
#include "rtnn/types.hpp"

namespace rtnn::engine {

/// What a backend supports. Callers gate on these instead of hard-coding
/// backend names (e.g. cuNSearch-style grids are range-only, FastRNN is
/// KNN-only).
struct BackendCaps {
  bool range = false;
  bool knn = false;
  /// Honors the approximate-search knobs (aabb_scale, elide_sphere_test).
  /// Backends without this flag answer exactly and ignore the knobs.
  bool approximate = false;
  /// Fills the launch statistics (IS calls, node visits) of the Report;
  /// every backend fills the phase timings.
  bool launch_stats = false;
  /// update_points() is genuinely cheaper than set_points() + rebuild:
  /// the backend keeps its spatial index alive across frames and refits
  /// it in place (charging the Report's time.refit phase). Backends
  /// without this flag still accept update_points() — it just costs a
  /// rebuild.
  bool dynamic = false;
  /// snapshot() returns an independent copy of the backend — the serving
  /// layer's publish-on-update primitive (src/service). Backends without
  /// this flag return nullptr from snapshot() and cannot serve.
  bool snapshot = false;
};

class SearchBackend {
 public:
  using Report = NeighborSearch::Report;

  virtual ~SearchBackend() = default;

  /// Stable identifier; the name the backend is registered under.
  virtual std::string_view name() const = 0;

  virtual BackendCaps caps() const = 0;

  /// Uploads the search points. Invalidates prior structures. Throws
  /// rtnn::Error on a non-finite coordinate.
  virtual void set_points(std::span<const Vec3> points) = 0;

  /// Moves the uploaded points to new positions (same count, same ids) —
  /// one frame of a dynamic sequence. Dynamic backends (caps().dynamic)
  /// refit in place; this default rebuilds via set_points(), so every
  /// backend honors the call.
  virtual void update_points(std::span<const Vec3> points) { set_points(points); }

  virtual std::size_t point_count() const = 0;

  /// Runs a neighbor search. `report`, when non-null, receives phase
  /// timings (and launch statistics when caps().launch_stats).
  virtual NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                                Report* report = nullptr) = 0;

  /// An independent copy of this backend — the uploaded points plus any
  /// structures already built — safe to search from another thread while
  /// the original keeps absorbing updates. This is the serving layer's
  /// snapshot primitive: SearchService clones its writer-owned master per
  /// published version, so readers' in-flight batches never share mutable
  /// state with the update path. Copy-on-write where the substrate
  /// supports it (ox::Accel build products are shared, never duplicated),
  /// deep copies elsewhere. Returns nullptr when the backend cannot
  /// snapshot (caps().snapshot is false).
  virtual std::unique_ptr<SearchBackend> snapshot() const { return nullptr; }

  /// Inert: every backend keeps its index until the points (or, for a
  /// radius-keyed structure, the radius) change. Kept only because
  /// perfbench's TracingBackend overrides it.
  virtual void set_index_persistence(bool on) { (void)on; }
};

}  // namespace rtnn::engine
