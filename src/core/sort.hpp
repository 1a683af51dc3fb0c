// Key-value radix sorts.
//
// Used for: Morton-sorting primitive centroids (LBVH build) and
// Morton-sorting queries (query scheduling, paper Figure 9).
// LSD radix sort, 8 bits per pass, with per-thread histograms.
#pragma once

#include <cstdint>
#include <vector>

namespace rtnn {

/// Sorts `keys` ascending, applying the identical permutation to `values`.
/// Stable. Both vectors must have the same length.
void radix_sort_pairs(std::vector<std::uint32_t>& keys, std::vector<std::uint32_t>& values);
void radix_sort_pairs(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& values);

}  // namespace rtnn
