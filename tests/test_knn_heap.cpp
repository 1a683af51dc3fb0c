#include "core/flat_knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
  // id order: a row must drain to exactly the first K of its stream
  // sorted by (dist², id), however the ties arrive.
  struct Pair {
    float dist2;
    std::uint32_t index;
  };
  Pcg32 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t k = 1 + rng.next_bounded(16);
    const std::uint32_t n = 1 + rng.next_bounded(300);
    const std::uint32_t levels = 1u << rng.next_bounded(12);
    std::vector<Pair> stream(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      stream[i] = {0.25f * static_cast<float>(rng.next_bounded(levels)), i};
    }
    for (std::uint32_t i = n - 1; i > 0; --i) {
      std::swap(stream[i], stream[rng.next_bounded(i + 1)]);
    }
    FlatKnnHeaps heaps(2, k);
    for (const Pair& e : stream) heaps.push(1, e.dist2, e.index);

    std::sort(stream.begin(), stream.end(), [](const Pair& a, const Pair& b) {
      return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.index < b.index);
    });
    stream.resize(std::min(k, n));
    std::vector<std::uint32_t> expected;
    for (const Pair& e : stream) expected.push_back(e.index);
    if (n >= k) {
      EXPECT_EQ(heaps.worst_dist2(1), stream.back().dist2) << "trial " << trial;
    }
    // Drained into another row of a wider result, as the launch stage does.
    NeighborResult result(3, 16);
    heaps.drain(1, result, 2);
    ASSERT_EQ(row_of(result, 2), expected)
        << "trial " << trial << " k=" << k << " n=" << n << " levels=" << levels;
    EXPECT_EQ(result.count(0) + result.count(1), 0u);
  }
}

TEST(FlatKnnHeaps, PackedKeysOrderZeroSubnormalAndTiedDistances) {
  // The key is (bits of dist² << 32) | id: +0, the subnormals and the
  // normals must order by value, then by id, as one unsigned compare.
  const float sub_min = std::numeric_limits<float>::denorm_min();
  const float sub_max = std::nextafter(std::numeric_limits<float>::min(), 0.0f);
  const float norm_min = std::numeric_limits<float>::min();
  const std::vector<float> ascending = {0.0f, sub_min, 2.0f * sub_min, sub_max, norm_min,
                                        1.0f, std::numeric_limits<float>::max()};
  for (std::size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(FlatKnnHeaps::key(ascending[i], 0xffffffffu),
              FlatKnnHeaps::key(ascending[i + 1], 0u))
        << ascending[i] << " vs " << ascending[i + 1];
  }
  EXPECT_LT(FlatKnnHeaps::key(sub_min, 3), FlatKnnHeaps::key(sub_min, 4));
  EXPECT_EQ(FlatKnnHeaps::dist2_of(FlatKnnHeaps::key(sub_max, 7)), sub_max);
  EXPECT_EQ(FlatKnnHeaps::index_of(FlatKnnHeaps::key(sub_max, 7)), 7u);

  // Pushed in reverse, two ids per distance: a row keeps and drains them
  // ascending by (dist², id), at every K from 1 up.
  for (std::uint32_t k = 1; k <= 2 * ascending.size(); ++k) {
    FlatKnnHeaps heaps(1, k);
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < ascending.size(); ++i) {
      expected.push_back(static_cast<std::uint32_t>(2 * i));
      expected.push_back(static_cast<std::uint32_t>(2 * i + 1));
    }
    for (std::size_t i = ascending.size(); i-- > 0;) {
      heaps.push(0, ascending[i], static_cast<std::uint32_t>(2 * i + 1));
      heaps.push(0, ascending[i], static_cast<std::uint32_t>(2 * i));
    }
    expected.resize(k);
    EXPECT_EQ(heaps.worst_dist2(0), ascending[(k - 1) / 2]) << "k=" << k;
    EXPECT_EQ(row_of(heaps.extract(), 0), expected) << "k=" << k;
  }

  // K = 1 keeps the single smallest key: +0 with the smaller id beats
  // every subnormal, and a tie with a smaller id displaces the root.
  FlatKnnHeaps one(1, 1);
  EXPECT_TRUE(one.push(0, sub_min, 1));
  EXPECT_TRUE(one.push(0, 0.0f, 9));
  EXPECT_TRUE(one.push(0, 0.0f, 4));
  EXPECT_FALSE(one.push(0, 0.0f, 4));
  EXPECT_FALSE(one.push(0, 0.0f, 5));
  EXPECT_FALSE(one.push(0, sub_min, 0));
  EXPECT_EQ(one.worst_dist2(0), 0.0f);
  EXPECT_EQ(row_of(one.extract(), 0), (std::vector<std::uint32_t>{4}));
}

TEST(FlatKnnHeaps, SeededRowRefusesAKeyItHolds) {
  // A seed is a point the row's walk meets again: its key must not enter
  // the row twice, whether the row is short or full. An unseeded row
  // does not scan (the baselines never push an id twice).
  FlatKnnHeaps heaps(2, 3);
  heaps.seed(0, 1.0f, 10);
  heaps.seed(0, 4.0f, 11);
  EXPECT_EQ(heaps.size(0), 2u);
  EXPECT_FALSE(heaps.push(0, 1.0f, 10));  // short row, held
  EXPECT_FALSE(heaps.push(0, 4.0f, 11));
  EXPECT_TRUE(heaps.push(0, 2.0f, 12));   // fills the row
  EXPECT_FALSE(heaps.push(0, 1.0f, 10));  // full row, held and below the root
  EXPECT_FALSE(heaps.push(0, 2.0f, 12));  // held, pushed by the walk itself
  EXPECT_TRUE(heaps.push(0, 1.0f, 9));    // same distance, new id: evicts 11
  EXPECT_EQ(heaps.worst_dist2(0), 2.0f);
  EXPECT_FALSE(heaps.push(0, 4.0f, 11));  // evicted seeds stay out by order
  NeighborResult result(1, 3);
  heaps.drain(0, result, 0);
  EXPECT_EQ(row_of(result, 0), (std::vector<std::uint32_t>{9, 10, 12}));

  // Draining clears the mark: the reused row keeps duplicates again,
  // like any unseeded row.
  EXPECT_TRUE(heaps.push(0, 1.0f, 10));
  EXPECT_TRUE(heaps.push(0, 1.0f, 10));
  EXPECT_EQ(heaps.size(0), 2u);

  // A seed beyond a full row's root is dropped.
  heaps.push(1, 1.0f, 1);
  heaps.push(1, 2.0f, 2);
  heaps.push(1, 3.0f, 3);
  heaps.seed(1, 5.0f, 5);
  EXPECT_EQ(heaps.size(1), 3u);
  EXPECT_EQ(heaps.worst_dist2(1), 3.0f);
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
