// Shared result container for every neighbor-search implementation.
//
// All searches in this repo use the paper's interface (section 2.1): a
// search radius `r` plus a maximum neighbor count `K`, for both range
// search and KNN. Results are therefore bounded: each query owns K
// fixed slots — the flat layout a GPU kernel writes into.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace rtnn {

class NeighborResult {
 public:
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  NeighborResult() = default;

  NeighborResult(std::size_t num_queries, std::uint32_t k, bool store_indices = true)
      : num_queries_(num_queries), k_(k), counts_(num_queries, 0) {
    RTNN_CHECK(k > 0, "K must be positive");
    if (store_indices) indices_.assign(num_queries * k, kInvalid);
  }

  std::size_t num_queries() const { return num_queries_; }
  std::uint32_t k() const { return k_; }
  bool stores_indices() const { return !indices_.empty() || num_queries_ == 0 || k_ == 0; }

  std::uint32_t count(std::size_t query) const { return counts_[query]; }

  /// The filled neighbor slots of `query` (point indices, unordered for
  /// range search, ascending by (dist², index) for KNN extractions).
  std::span<const std::uint32_t> neighbors(std::size_t query) const {
    RTNN_CHECK(!indices_.empty(), "result stores counts only");
    return {indices_.data() + query * k_, counts_[query]};
  }

  /// Device-style mutable access for kernels.
  std::uint32_t& count_ref(std::size_t query) { return counts_[query]; }

  /// Appends `point` to `query`'s slots if space remains; returns the new
  /// count. Caller guarantees exclusive access to the query's row (one
  /// thread per ray — the CUDA contract).
  std::uint32_t record(std::size_t query, std::uint32_t point) {
    std::uint32_t& c = counts_[query];
    if (c < k_) {
      if (!indices_.empty()) indices_[query * k_ + c] = point;
      ++c;
    }
    return c;
  }

  std::uint64_t total_neighbors() const {
    std::uint64_t sum = 0;
    for (const std::uint32_t c : counts_) sum += c;
    return sum;
  }

 private:
  std::size_t num_queries_ = 0;
  std::uint32_t k_ = 0;
  std::vector<std::uint32_t> indices_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace rtnn
