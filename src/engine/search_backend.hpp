// The engine layer: one neighbor-search contract, many substrates.
//
// The paper frames neighbor search as a single bounded interface — radius
// r, neighbor cap K, range or KNN mode — served by interchangeable
// implementations (RT-core mapping, classic GPU grids, trees, exhaustive
// search). SearchBackend is that contract: every implementation in this
// repo adapts to it, BackendRegistry constructs them by name, and
// AutoBackend dispatches per call using the calibrated cost model plus
// workload statistics.
//
// Contract:
//   * set_points() uploads the point set; it may be called repeatedly and
//     invalidates any previously built structure.
//   * update_points() moves an already-uploaded set to new positions
//     (same count, same ids) — the dynamic-cloud lifecycle. Backends with
//     caps().dynamic refit their structures in place; the base-class
//     default falls back to set_points() (a full rebuild), so callers
//     drive frame sequences without ever branching on capability.
//   * search() answers `queries` under `params` (same SearchParams as the
//     RTNN core — mode, radius, k). Backends build their spatial index
//     lazily on first search (and rebuild when the radius changes, for
//     radius-keyed structures), so a Report captures build cost in
//     time.bvh, and pure query cost in time.search.
//   * Results use NeighborResult's bounded layout: at most K slots per
//     query. For range search with more than K true neighbors, *which* K
//     are returned is backend-defined (any within-radius subset is valid).
//     A KNN row is the K smallest (dist², point id) pairs within the
//     radius, in that order: a function of the point set alone, so every
//     backend returns the same bytes. params.store_indices = false
//     returns counts only.
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

  /// Uploads the search points. Invalidates prior structures.
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

  /// Serving hint: keep lazily built index structures alive across
  /// search() calls instead of rebuilding per call, where the backend
  /// distinguishes the two (NeighborSearch's static path builds per call
  /// by default to preserve its historical timing profile). No-op for
  /// backends that always cache.
  virtual void set_index_persistence(bool on) { (void)on; }
};

}  // namespace rtnn::engine
