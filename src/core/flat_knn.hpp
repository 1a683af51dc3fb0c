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
// dist² values seen, whatever the order. Each entry is one 64-bit key,
// (bits of dist² << 32) | index. Every caller pushes dist² ≥ +0 and never
// NaN (a sum of squares that passed a radius test), and on those floats
// the bit pattern orders like the value, so the (dist², index) order is
// one unsigned compare.
//
// Seeds: a row may start from points its walk will meet again
// (KnnPipeline seeds a ray's row from its predecessor's neighbours). A
// row that holds seeds refuses a key it already has; rows without seeds
// skip that scan.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/neighbor_result.hpp"
#include "core/parallel.hpp"

namespace rtnn {

class FlatKnnHeaps {
 public:
  /// (bits of dist² << 32) | index: the (dist², index) order as one
  /// unsigned compare, for dist² ≥ +0 and not NaN.
  using Key = std::uint64_t;

  static Key key(float dist2, std::uint32_t index) {
    RTNN_DCHECK(!std::signbit(dist2) && !std::isnan(dist2), "a KNN dist² must be ≥ +0");
    return std::uint64_t{std::bit_cast<std::uint32_t>(dist2)} << 32 | index;
  }
  static float dist2_of(Key key) {
    return std::bit_cast<float>(static_cast<std::uint32_t>(key >> 32));
  }
  static std::uint32_t index_of(Key key) { return static_cast<std::uint32_t>(key); }

  FlatKnnHeaps(std::size_t num_rows, std::uint32_t k)
      : num_rows_(num_rows), k_(k), keys_(num_rows * k), sizes_(num_rows, 0),
        seeded_(num_rows, 0) {
    RTNN_CHECK(k > 0, "K must be positive");
  }

  std::uint32_t k() const { return k_; }
  std::size_t num_rows() const { return num_rows_; }
  std::uint32_t size(std::size_t q) const { return sizes_[q]; }

  /// Row q's keys, in heap order (the root, the largest, first).
  std::span<const Key> row(std::size_t q) const { return {keys_.data() + q * k_, sizes_[q]}; }

  /// Query q's K-th smallest dist² so far (+inf until K are kept): no
  /// candidate farther than this can enter the row.
  float worst_dist2(std::size_t q) const {
    return sizes_[q] == k_ ? dist2_of(keys_[q * k_]) : std::numeric_limits<float>::infinity();
  }

  /// Offers a candidate to query q's heap; keeps it if it sorts before
  /// the root of a full heap and, in a seeded row, is not held already.
  /// One thread per query row (the CUDA shader contract).
  bool push(std::size_t q, float dist2, std::uint32_t index) {
    const Key entry = key(dist2, index);
    if (!sorts_in(q, entry)) return false;
    if (seeded_[q] != 0) {
      const std::span<const Key> held = row(q);
      if (std::find(held.begin(), held.end(), entry) != held.end()) return false;
    }
    insert(q, entry);
    return true;
  }

  /// Offers a seed to query q's heap: a point its walk will meet again.
  /// The caller offers distinct indices; once one is kept, the row
  /// refuses a key it holds.
  void seed(std::size_t q, float dist2, std::uint32_t index) {
    const Key entry = key(dist2, index);
    if (!sorts_in(q, entry)) return;
    insert(q, entry);
    seeded_[q] = 1;
  }

  /// Appends row q's neighbors, ascending by (dist², index), to row
  /// `dest` of `result`, and empties row q for reuse. The max-heap sorts
  /// in place (heapsort). One thread per row.
  void drain(std::size_t q, NeighborResult& result, std::size_t dest) {
    Key* heap = keys_.data() + q * k_;
    const std::uint32_t n = sizes_[q];
    std::sort_heap(heap, heap + n);
    for (std::uint32_t i = 0; i < n; ++i) result.record(dest, index_of(heap[i]));
    sizes_[q] = 0;
    seeded_[q] = 0;
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
  /// Whether row q would keep `entry`: the row is short, or the entry
  /// sorts before its root.
  bool sorts_in(std::size_t q, Key entry) const {
    return sizes_[q] < k_ || entry < keys_[q * k_];
  }

  /// Adds an entry that sorts_in(): sifted up from a new leaf while the
  /// row is short, else in place of the root, sifted down.
  void insert(std::size_t q, Key entry) {
    Key* heap = keys_.data() + q * k_;
    std::uint32_t& n = sizes_[q];
    std::uint32_t i = 0;
    if (n < k_) {
      // Sift up from the new leaf: smaller parents move down into the hole.
      i = n++;
      while (i > 0 && heap[(i - 1) / 2] < entry) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
      }
    } else {
      // Replace the root and sift down: larger children move up.
      for (std::uint32_t c = 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && heap[c] < heap[c + 1]) ++c;
        if (!(entry < heap[c])) break;
        heap[i] = heap[c];
        i = c;
      }
    }
    heap[i] = entry;
  }

  std::size_t num_rows_;
  std::uint32_t k_;
  std::vector<Key> keys_;
  std::vector<std::uint32_t> sizes_;
  std::vector<std::uint8_t> seeded_;
};

}  // namespace rtnn
