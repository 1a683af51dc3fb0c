// The coherence-aware batch optimizer of the serving path.
//
// The paper's main lever is query reorganization: neighbor searches get
// fast when spatially coherent queries traverse the BVH together. Serving
// traffic arrives as many small requests whose cross-request coherence a
// naive arrival-order concatenation destroys — and real workloads (lidar
// frames, SPH steps) are full of coincident queries repeated across
// concurrent requests. optimize_batch() runs the reorganization pipeline
// over the *merged* cross-request query set, between the dispatcher and
// the per-bin launches:
//
//   bin      Requests split into sub-batches homogeneous in the
//            answer-shaping params (SearchParams::batch_key(): mode, r, K,
//            store_indices, approximation knobs) — one launch per bin, so
//            requests that differ only in pipeline-shaping fields no
//            longer force separate dispatch groups.
//   reorder  Each bin's merged rows are sorted by their own 63-bit
//            Morton code (schedule_queries, the order ScheduleStage
//            launches in), so spatially adjacent queries from *different*
//            requests become adjacent in the launch (the paper's
//            section-4 idea, applied across requests).
//   dedup    Within a run of equal codes, exactly coincident rows elect one
//            representative; only the representatives are searched, and
//            the representative's result row fans out to its duplicates
//            at scatter time. The exactness guard is bitwise position
//            equality — the one case where the representative's result is
//            provably the duplicate's result, for range (byte-identical)
//            and KNN (a row is the K smallest (dist², id) pairs, fixed by
//            the query position) alike. Any row that is merely *near* a
//            representative falls back to exact per-query search (it
//            becomes its own representative); no approximate transfer
//            ever happens.
//
// The optimizer is pure geometry preprocessing: it never touches an index
// or a backend, so any engine::SearchBackend can serve its bins. Results
// scatter back through the permutation-aware split_batch_result overload
// — per-request result slots are untouched by reorder and dedup alike.
//
// Cost accounting: BatchPlan::seconds is the optimizer's wall time; the
// serving layer charges it to Report::time.opt, and the per-bin counters
// (queries_deduped, batch_bins) land in the bin reports so the reorder
// cost vs traversal win stays attributable (tools/bench_compare.py
// breaks serving deltas down per stage).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"
#include "rtnn/neighbor_search.hpp"
#include "rtnn/types.hpp"

namespace rtnn {

/// One request as the optimizer sees it: the caller keeps the query rows
/// alive until the plan's bins are scattered.
struct BatchRequest {
  std::span<const Vec3> queries;
  SearchParams params;
};

struct BatchOptimizerOptions {
  /// Morton-sort each bin's merged rows and dedup coincident ones (off =
  /// arrival order kept, every row its own representative).
  bool reorder = true;
  /// Per-bin cap on merged rows: a request that would push an open bin
  /// past the cap closes it and opens a fresh bin for the same key
  /// (bounds launch and scratch size). 0 = unbounded — no bin ever
  /// closes early; the dispatcher's tick caps already bound the merged
  /// set. Same contract as CloudConfig::max_bin_queries (service.hpp).
  std::size_t max_bin_queries = 0;
};

/// One homogeneous launch bin: search `queries` under `params`, then
/// scatter() the result back to the member requests.
struct BatchBin {
  /// The first member request's params. Key fields are shared by every
  /// member (that is what made them one bin); pipeline-shaping fields are
  /// the first member's.
  SearchParams params;
  /// Representative queries, in optimized (Morton) order. This is what
  /// the backend searches: size == merged_queries - deduped.
  std::vector<Vec3> queries;
  /// Merged bin row -> representative result row (the inverse permutation
  /// of the reorder, collapsed onto representatives by dedup).
  std::vector<std::uint32_t> rep_rows;
  /// Member request r's rows are merged rows [slices[r].first,
  /// slices[r].first + slices[r].count) — pre-optimization addressing.
  std::vector<BatchSlice> slices;
  /// Member identity: slices[r] holds the rows of requests[request_ids[r]]
  /// of the optimize_batch() input.
  std::vector<std::size_t> request_ids;
  std::size_t merged_queries = 0;  // rows before dedup
  std::size_t deduped = 0;         // rows aliased to a representative

  /// Fans the bin's search result out to one NeighborResult per member
  /// request (ordered as request_ids).
  std::vector<NeighborResult> scatter(const NeighborResult& rep_result) const {
    return split_batch_result(rep_result, slices, rep_rows);
  }
};

struct BatchPlan {
  std::vector<BatchBin> bins;      // in order of each key's first arrival
  std::size_t deduped = 0;         // total rows aliased across bins
  double seconds = 0.0;            // optimizer wall time (charge to time.opt)
};

/// Runs the bin → reorder → dedup pipeline over a tick's requests.
/// Requests with equal batch_key() land in the same bin (subject to
/// max_bin_queries); every bin's scatter() output is exactly what a
/// per-request search would have returned. Zero-row requests are legal
/// and produce empty per-request results.
BatchPlan optimize_batch(std::span<const BatchRequest> requests,
                         const BatchOptimizerOptions& options = {});

}  // namespace rtnn
