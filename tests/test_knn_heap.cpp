#include "core/flat_knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/neighbor_result.hpp"
#include "core/rng.hpp"

namespace rtnn {
namespace {

std::vector<std::uint32_t> row_of(const NeighborResult& result, std::size_t q) {
  const auto row = result.neighbors(q);
  return {row.begin(), row.end()};
}

TEST(FlatKnnHeaps, KeepsKSmallest) {
  FlatKnnHeaps heaps(1, 3);
  for (const float d : {9.0f, 1.0f, 5.0f, 3.0f, 7.0f, 2.0f}) {
    heaps.push(0, d, static_cast<std::uint32_t>(d));
  }
  EXPECT_EQ(heaps.size(0), 3u);
  EXPECT_EQ(row_of(heaps.extract(), 0), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(FlatKnnHeaps, WorstDistIsInfinityUntilFull) {
  FlatKnnHeaps heaps(1, 2);
  EXPECT_EQ(heaps.worst_dist2(0), std::numeric_limits<float>::infinity());
  heaps.push(0, 1.0f, 0);
  EXPECT_EQ(heaps.worst_dist2(0), std::numeric_limits<float>::infinity());
  heaps.push(0, 2.0f, 1);
  EXPECT_FLOAT_EQ(heaps.worst_dist2(0), 2.0f);
}

TEST(FlatKnnHeaps, RejectsCandidatesAfterTheRoot) {
  FlatKnnHeaps heaps(1, 2);
  heaps.push(0, 1.0f, 0);
  heaps.push(0, 2.0f, 5);
  EXPECT_FALSE(heaps.push(0, 3.0f, 2));  // farther than the root
  EXPECT_FALSE(heaps.push(0, 2.0f, 7));  // tied, larger id
  EXPECT_TRUE(heaps.push(0, 2.0f, 4));   // tied, smaller id: evicts id 5
  EXPECT_FLOAT_EQ(heaps.worst_dist2(0), 2.0f);
  EXPECT_TRUE(heaps.push(0, 0.5f, 3));
  EXPECT_FLOAT_EQ(heaps.worst_dist2(0), 1.0f);
  EXPECT_EQ(row_of(heaps.extract(), 0), (std::vector<std::uint32_t>{3, 0}));
}

TEST(FlatKnnHeaps, RejectsZeroK) {
  EXPECT_THROW(FlatKnnHeaps(4, 0), Error);
}

TEST(FlatKnnHeaps, IndependentRows) {
  FlatKnnHeaps heaps(3, 2);
  heaps.push(0, 1.0f, 10);
  heaps.push(1, 5.0f, 20);
  heaps.push(1, 2.0f, 21);
  heaps.push(1, 1.0f, 22);  // evicts 5.0
  EXPECT_EQ(heaps.size(0), 1u);
  EXPECT_EQ(heaps.size(1), 2u);
  EXPECT_EQ(heaps.size(2), 0u);
  EXPECT_FLOAT_EQ(heaps.worst_dist2(1), 2.0f);
}

TEST(FlatKnnHeaps, ExtractSortsAscending) {
  FlatKnnHeaps heaps(1, 4);
  heaps.push(0, 4.0f, 4);
  heaps.push(0, 1.0f, 1);
  heaps.push(0, 3.0f, 3);
  heaps.push(0, 2.0f, 2);
  EXPECT_EQ(row_of(heaps.extract(), 0), (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

TEST(FlatKnnHeaps, HeavyTiesKeepTheFirstKByDistanceThenId) {
  // Streams whose dist² takes 1 to 2048 distinct values (heavy ties at
  // the low end, a plain partial sort at the high end), pushed in random
  // id order: a row must extract to exactly the first K of its stream
  // sorted by (dist², id), however the ties arrive.
  using Entry = FlatKnnHeaps::Entry;
  Pcg32 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t k = 1 + rng.next_bounded(16);
    const std::uint32_t n = 1 + rng.next_bounded(300);
    const std::uint32_t levels = 1u << rng.next_bounded(12);
    std::vector<Entry> stream(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      stream[i] = {0.25f * static_cast<float>(rng.next_bounded(levels)), i};
    }
    for (std::uint32_t i = n - 1; i > 0; --i) {
      std::swap(stream[i], stream[rng.next_bounded(i + 1)]);
    }
    FlatKnnHeaps heaps(1, k);
    for (const Entry& e : stream) heaps.push(0, e.dist2, e.index);

    std::sort(stream.begin(), stream.end(), [](const Entry& a, const Entry& b) {
      return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.index < b.index);
    });
    stream.resize(std::min(k, n));
    std::vector<std::uint32_t> expected;
    for (const Entry& e : stream) expected.push_back(e.index);
    if (n >= k) {
      EXPECT_EQ(heaps.worst_dist2(0), stream.back().dist2) << "trial " << trial;
    }
    ASSERT_EQ(row_of(heaps.extract(), 0), expected)
        << "trial " << trial << " k=" << k << " n=" << n << " levels=" << levels;
  }
}

TEST(FlatKnnHeaps, DrainSortsIntoTheDestinationRowAndEmptiesTheRow) {
  // The launch stage's chunk pool: row i (a launch index) lands in the
  // result row of its query, and the emptied row serves the next chunk.
  FlatKnnHeaps heaps(2, 3);
  NeighborResult result(5, 3);
  for (const float d : {4.0f, 1.0f, 3.0f, 2.0f}) heaps.push(1, d, static_cast<std::uint32_t>(d));
  heaps.drain(1, result, 4);
  EXPECT_EQ(row_of(result, 4), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(heaps.size(1), 0u);
  EXPECT_EQ(heaps.worst_dist2(1), std::numeric_limits<float>::infinity());
  heaps.push(1, 0.5f, 9);
  heaps.drain(1, result, 2);
  EXPECT_EQ(row_of(result, 2), (std::vector<std::uint32_t>{9}));
  EXPECT_EQ(row_of(result, 4), (std::vector<std::uint32_t>{1, 2, 3}));
  heaps.drain(0, result, 0);  // an empty row adds nothing
  EXPECT_EQ(result.count(0), 0u);
}

TEST(NeighborResultContainer, RecordAndBounds) {
  NeighborResult result(2, 3);
  EXPECT_EQ(result.record(0, 7), 1u);
  EXPECT_EQ(result.record(0, 8), 2u);
  EXPECT_EQ(result.record(0, 9), 3u);
  EXPECT_EQ(result.record(0, 10), 3u);  // full: ignored
  EXPECT_EQ(result.count(0), 3u);
  EXPECT_EQ(result.count(1), 0u);
  const auto row = result.neighbors(0);
  EXPECT_EQ(row[0], 7u);
  EXPECT_EQ(row[2], 9u);
  EXPECT_EQ(result.total_neighbors(), 3u);
}

TEST(NeighborResultContainer, CountOnlyMode) {
  NeighborResult result(4, 2, /*store_indices=*/false);
  result.record(1, 5);
  EXPECT_EQ(result.count(1), 1u);
  EXPECT_THROW(result.neighbors(1), Error);
}

}  // namespace
}  // namespace rtnn
