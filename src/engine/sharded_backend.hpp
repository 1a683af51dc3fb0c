// Sharded search backend: one SearchBackend made of many.
//
// Wraps any snapshot-capable inner backend and scales it across spatial
// shards (rtnn/sharding.hpp): set_points() Morton-splits the cloud into
// Morton-contiguous shards, each owning an independent inner backend
// over its slice (its points in ascending global id order, so the inner
// backend breaks distance ties exactly as the whole cloud would);
// search() scatters the queries to the shards whose tight AABB lies
// within the search radius, runs each shard's inner search, and gathers
// the partial results exactly (per-shard Reports sum through
// Report::operator+=; KNN merges through FlatKnnHeaps into the
// unsharded rows, byte for byte). The
// serving registry (src/service) builds one of these for clouds above
// its shard threshold — the whole service machinery (snapshots, batch
// optimizer, dispatcher) composes with it unchanged because it is just
// another SearchBackend.
//
// A cloud at or below the threshold keeps a single shard, and every call
// delegates straight to the inner backend — byte-identical behavior, no
// routing or gather overhead.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "engine/search_backend.hpp"
#include "rtnn/sharding.hpp"

namespace rtnn::engine {

/// When and how far to split (see plan_shard_count), and what to do when
/// a shard's inner search throws mid-gather.
struct ShardingOptions {
  /// Points per shard before a cloud splits; 0 = never split.
  std::size_t shard_threshold = std::size_t{1} << 17;
  /// Upper bound on the split, whatever the cloud size.
  std::uint32_t max_shards = 16;

  // --- Per-shard fault isolation (the degradation ladder) ---
  //
  // A shard search that throws is retried up to max_attempts times with
  // exponential backoff (backoff, 2x per attempt). A shard that fails
  // every attempt either fails the whole search (allow_degraded = false:
  // the last error rethrows, typed with the shard id) or is *dropped
  // from the gather* (allow_degraded = true): the merged result is a
  // correct answer over the surviving shards' points, the dropped shard
  // ids are reported via last_dropped_shards(), and the Report counts
  // shards_dropped/shard_retries so nothing degrades silently.

  /// Search attempts per shard per query batch (1 = no retry).
  std::uint32_t max_attempts = 1;
  /// Sleep before the first retry; doubles per subsequent attempt.
  std::chrono::microseconds backoff{0};
  /// Failure policy after the attempts run out: false = throw (the whole
  /// search fails typed), true = drop the shard and gather the rest.
  bool allow_degraded = false;
};

class ShardedBackend final : public SearchBackend {
 public:
  explicit ShardedBackend(std::string inner = "rtnn",
                          const ShardingOptions& options = {});

  std::string_view name() const override { return "sharded"; }
  /// The inner backend's caps verbatim: sharding preserves exactness and
  /// every mode the substrate supports.
  BackendCaps caps() const override { return inner_caps_; }

  void set_points(std::span<const Vec3> points) override;
  /// Same count: each shard keeps its point assignment (ids never move
  /// between shards) and refits in place; shard AABBs re-tighten so
  /// routing stays exact as points drift. A resize replans from scratch.
  void update_points(std::span<const Vec3> points) override;
  std::size_t point_count() const override { return points_.size(); }

  NeighborResult search(std::span<const Vec3> queries, const SearchParams& params,
                        Report* report = nullptr) override;

  /// Clones every shard's snapshot (copy-on-write where the substrate
  /// supports it). Nullptr when the inner backend cannot snapshot.
  std::unique_ptr<SearchBackend> snapshot() const override;

  void set_index_persistence(bool on) override;

  /// Introspection for tests and benches.
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const ShardPlan& plan() const { return plan_; }
  /// Routed (query, shard) pairs accumulated across search() calls —
  /// fanout / queries measures the boundary-overlap amplification.
  std::uint64_t total_fanout() const { return total_fanout_; }

  /// Shards dropped from the most recent search()'s gather (empty unless
  /// allow_degraded let a failing shard out of the merge). Same thread
  /// contract as search() itself: one caller at a time.
  const std::vector<std::uint32_t>& last_dropped_shards() const {
    return last_dropped_;
  }

 private:
  std::string inner_name_;
  ShardingOptions options_;
  BackendCaps inner_caps_{};
  bool persist_ = false;

  /// One shard's search with the retry/degrade policy applied; true when
  /// the shard served, false when it was dropped (allow_degraded).
  bool search_shard_guarded(std::size_t shard, std::span<const Vec3> queries,
                            const SearchParams& params, Report* report,
                            NeighborResult* result);

  std::vector<Vec3> points_;  // the global cloud (gather needs it)
  ShardPlan plan_;
  std::vector<std::unique_ptr<SearchBackend>> shards_;
  std::uint64_t total_fanout_ = 0;
  std::vector<std::uint32_t> last_dropped_;
};

}  // namespace rtnn::engine
