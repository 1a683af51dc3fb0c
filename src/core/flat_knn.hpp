// Flat pool of bounded max-heaps: one K-slot heap per row in contiguous
// storage — the "priority queue" of the paper's KNN IS shader, laid out
// as the device-friendly rows a kernel writes to (one row per ray, no
// per-ray allocation). The baselines keep a row per query and extract()
// them; the RTNN launch stage keeps a row per launch index of one chunk
// and drain()s each into its query's result row after the launch.
//
// The one KNN order: entries rank by (dist², index). A row keeps the K
// smallest pairs pushed into it, so which of several points tied at the
// K-th distance survives depends on their ids, never on push order, and
// the kept distances (hence worst_dist2) are those of the K smallest
// dist² values seen, whatever the order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/error.hpp"
#include "core/neighbor_result.hpp"
#include "core/parallel.hpp"

namespace rtnn {

class FlatKnnHeaps {
 public:
  struct Entry {
    float dist2;
    std::uint32_t index;
  };

  FlatKnnHeaps(std::size_t num_rows, std::uint32_t k)
      : num_rows_(num_rows), k_(k), entries_(num_rows * k), sizes_(num_rows, 0) {
    RTNN_CHECK(k > 0, "K must be positive");
  }

  std::uint32_t k() const { return k_; }
  std::size_t num_rows() const { return num_rows_; }
  std::uint32_t size(std::size_t q) const { return sizes_[q]; }

  /// Query q's K-th smallest dist² so far (+inf until K are kept): no
  /// candidate farther than this can enter the row.
  float worst_dist2(std::size_t q) const {
    return sizes_[q] == k_ ? entries_[q * k_].dist2
                           : std::numeric_limits<float>::infinity();
  }

  /// Offers a candidate to query q's heap; keeps it if it sorts before
  /// the root of a full heap. One thread per query row (the CUDA shader
  /// contract).
  bool push(std::size_t q, float dist2, std::uint32_t index) {
    Entry* heap = entries_.data() + q * k_;
    std::uint32_t& n = sizes_[q];
    const Entry entry{dist2, index};
    std::uint32_t i = 0;
    if (n < k_) {
      // Sift up from the new leaf: smaller parents move down into the hole.
      i = n++;
      while (i > 0 && before(heap[(i - 1) / 2], entry)) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
      }
    } else {
      if (!before(entry, heap[0])) return false;
      // Replace the root and sift down: larger children move up.
      for (std::uint32_t c = 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && before(heap[c], heap[c + 1])) ++c;
        if (!before(entry, heap[c])) break;
        heap[i] = heap[c];
        i = c;
      }
    }
    heap[i] = entry;
    return true;
  }

  /// Appends row q's neighbors, ascending by (dist², index), to row
  /// `dest` of `result`, and empties row q for reuse. One thread per row.
  void drain(std::size_t q, NeighborResult& result, std::size_t dest) {
    Entry* heap = entries_.data() + q * k_;
    std::sort(heap, heap + sizes_[q], before);
    for (std::uint32_t i = 0; i < sizes_[q]; ++i) result.record(dest, heap[i].index);
    sizes_[q] = 0;
  }

  /// Drains every row into a NeighborResult with one row per heap row.
  /// Parallel over rows.
  NeighborResult extract(bool store_indices = true) {
    NeighborResult result(num_rows_, k_, store_indices);
    parallel_for(0, static_cast<std::int64_t>(num_rows_), [&](std::int64_t q) {
      drain(static_cast<std::size_t>(q), result, static_cast<std::size_t>(q));
    }, 512);
    return result;
  }

 private:
  static bool before(const Entry& a, const Entry& b) {
    return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.index < b.index);
  }

  std::size_t num_rows_;
  std::uint32_t k_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> sizes_;
};

}  // namespace rtnn
