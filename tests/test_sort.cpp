#include "core/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/rng.hpp"

namespace rtnn {
namespace {

template <typename Key>
std::vector<Key> random_keys(std::size_t n, std::uint64_t seed) {
  std::vector<Key> keys(n);
  Pcg32 rng(seed);
  for (auto& k : keys) {
    k = static_cast<Key>(sizeof(Key) == 8 ? rng.next_u64() : rng.next_u32());
  }
  return keys;
}

/// Sorts `keys` through radix_sort_pairs with an iota payload (the
/// keys-only checks below).
template <typename Key>
void sort_keys(std::vector<Key>& keys) {
  std::vector<std::uint32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0u);
  radix_sort_pairs(keys, values);
}

TEST(RadixSort, SortsU32) {
  auto keys = random_keys<std::uint32_t>(10000, 1);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  sort_keys(keys);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, SortsU64) {
  auto keys = random_keys<std::uint64_t>(10000, 2);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  sort_keys(keys);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, EmptyAndSingle) {
  std::vector<std::uint32_t> empty;
  sort_keys(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<std::uint32_t> one{42};
  sort_keys(one);
  EXPECT_EQ(one, std::vector<std::uint32_t>{42});
}

TEST(RadixSort, AlreadySortedAndReversed) {
  std::vector<std::uint32_t> keys(1000);
  std::iota(keys.begin(), keys.end(), 0u);
  auto expected = keys;
  sort_keys(keys);
  EXPECT_EQ(keys, expected);
  std::reverse(keys.begin(), keys.end());
  sort_keys(keys);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, PairsCarryValues) {
  auto keys = random_keys<std::uint64_t>(5000, 3);
  std::vector<std::uint32_t> values(keys.size());
  std::iota(values.begin(), values.end(), 0u);
  const auto original = keys;
  radix_sort_pairs(keys, values);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(original[values[i]], keys[i]);
  }
}

TEST(RadixSort, PairsStable) {
  // Many duplicate keys: equal keys must keep input order of values.
  std::vector<std::uint32_t> keys(4000);
  std::vector<std::uint32_t> values(keys.size());
  Pcg32 rng(4);
  for (auto& k : keys) k = rng.next_bounded(8);
  std::iota(values.begin(), values.end(), 0u);
  radix_sort_pairs(keys, values);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] == keys[i]) {
      EXPECT_LT(values[i - 1], values[i]);
    }
  }
}

TEST(RadixSort, SkipsConstantBytePasses) {
  // Keys differing only in the low byte exercise the pass-skipping path.
  std::vector<std::uint32_t> keys(1000);
  Pcg32 rng(5);
  for (auto& k : keys) k = 0xAB000000u | rng.next_bounded(256);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  sort_keys(keys);
  EXPECT_EQ(keys, expected);
}

}  // namespace
}  // namespace rtnn
