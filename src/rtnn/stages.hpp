// The steps behind NeighborSearch::search().
//
// search() is one straight line over its per-call state (SearchContext,
// defined in stages.cpp), driven by params.opts — the paper's end-to-end
// flow, Figure 12's phases, Figure 13's ablation axes:
//
//   schedule   opts.scheduling     Morton sort of the queries      [Opt]
//   partition  opts.partitioning   megacell grid + growth          [Opt]
//   bundle     opts.partitioning   cost-model scan, or one bundle
//                                  per partition (no_bundling())   [Opt]
//   launch     always              per-bundle BVH builds + chunked
//                                  launches                        [BVH/Search]
//
// search_with_plan() runs the same launch step on a caller's partitions
// and plan. The launch streams each launch unit's query ids through
// fixed-size chunks instead of materializing one concatenated id vector
// per bundle, so peak memory is O(chunk) rather than O(Q) per unit. KNN
// heaps are chunk-local too: one pool of min(Q, chunk) rows, indexed by
// launch index, drained into the call's result after each chunk's launch
// (and timed in time.search).
#pragma once

#include <cstddef>

#include "rtnn/neighbor_search.hpp"

namespace rtnn {

/// Queries per launch chunk. Bounds the ray buffer, the id scratch and
/// the KNN heap pool; launches wider than this are split (results are
/// row-addressed by query id, so splitting is invisible to output).
inline constexpr std::size_t kLaunchChunkSize = std::size_t{1} << 15;

}  // namespace rtnn
