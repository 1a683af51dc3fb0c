// Key-value radix sorts.
//
// Used for: Morton-sorting primitive centroids (LBVH build), Morton-sorting
// queries (query scheduling, paper Figure 9), and counting points into
// grid cells (uniform-grid baseline and megacell grid).
// LSD radix sort, 8 bits per pass, with per-thread histograms.
#pragma once

#include <cstdint>
#include <vector>

namespace rtnn {

/// Sorts `keys` ascending, applying the identical permutation to `values`.
/// Stable. Both vectors must have the same length.
void radix_sort_pairs(std::vector<std::uint32_t>& keys, std::vector<std::uint32_t>& values);
void radix_sort_pairs(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& values);

/// Sorts `keys` ascending (no payload).
void radix_sort(std::vector<std::uint32_t>& keys);
void radix_sort(std::vector<std::uint64_t>& keys);

/// Returns the permutation that sorts `keys` ascending (stable), without
/// reordering `keys` itself: result[i] = index of the i-th smallest key.
std::vector<std::uint32_t> sort_permutation(const std::vector<std::uint32_t>& keys);
std::vector<std::uint32_t> sort_permutation(const std::vector<std::uint64_t>& keys);

}  // namespace rtnn
