#include "core/sort.hpp"

#include <algorithm>
#include <array>

#include "core/parallel.hpp"

namespace rtnn {

namespace {

// One serial LSD pass: scatter by byte `shift/8` of the key. Stable.
template <typename Key>
void radix_pass(const Key* keys_in, Key* keys_out, const std::uint32_t* vals_in,
                std::uint32_t* vals_out, std::size_t n, unsigned shift) {
  std::array<std::uint32_t, 256> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    ++hist[static_cast<std::size_t>((keys_in[i] >> shift) & 0xffu)];
  }
  std::uint32_t sum = 0;
  for (auto& h : hist) {
    const std::uint32_t cur = h;
    h = sum;
    sum += cur;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Key k = keys_in[i];
    const std::uint32_t dst = hist[static_cast<std::size_t>((k >> shift) & 0xffu)]++;
    keys_out[dst] = k;
    vals_out[dst] = vals_in[i];
  }
}

template <typename Key>
bool pass_needed(const Key* keys, std::size_t n, unsigned shift) {
  if (n == 0) return false;
  const auto first = (keys[0] >> shift) & 0xffu;
  for (std::size_t i = 0; i < n; ++i) {
    if (((keys[i] >> shift) & 0xffu) != first) return true;
  }
  return false;
}

// Serial LSD radix over bytes [0, max_byte).
template <typename Key>
void lsd_sort(Key* keys, std::uint32_t* values, std::size_t n, unsigned max_byte,
              Key* key_scratch, std::uint32_t* val_scratch) {
  Key* kin = keys;
  Key* kout = key_scratch;
  std::uint32_t* vin = values;
  std::uint32_t* vout = val_scratch;
  bool in_place = true;
  for (unsigned byte = 0; byte < max_byte; ++byte) {
    if (!pass_needed(kin, n, byte * 8)) continue;
    radix_pass(kin, kout, vin, vout, n, byte * 8);
    std::swap(kin, kout);
    std::swap(vin, vout);
    in_place = !in_place;
  }
  if (!in_place) {
    std::copy(kin, kin + n, keys);
    std::copy(vin, vin + n, values);
  }
}

template <typename Key>
void radix_sort_impl(std::vector<Key>& keys, std::vector<std::uint32_t>& values) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  std::vector<Key> key_buf(n);
  std::vector<std::uint32_t> val_buf(n);

  constexpr unsigned kBytes = sizeof(Key);

  // Small arrays or single-threaded: plain LSD.
  if (n < (std::size_t{1} << 16) || num_threads() <= 1) {
    lsd_sort(keys.data(), values.data(), n, kBytes, key_buf.data(), val_buf.data());
    return;
  }

  // Parallel MSD+LSD hybrid: find the highest byte in which keys differ,
  // scatter into 256 buckets by that byte (stable, parallel histogram +
  // parallel scatter), then LSD-sort each bucket's lower bytes in parallel.
  struct KeyRange {
    Key min, max;
  };
  const KeyRange range = parallel_reduce<KeyRange>(
      0, static_cast<std::int64_t>(n), KeyRange{keys[0], keys[0]},
      [&](std::int64_t i) {
        const Key k = keys[static_cast<std::size_t>(i)];
        return KeyRange{k, k};
      },
      [](KeyRange a, const KeyRange& b) {
        a.min = std::min(a.min, b.min);
        a.max = std::max(a.max, b.max);
        return a;
      },
      grain::kElementwise);
  const Key key_min = range.min;
  const Key key_max = range.max;
  if (key_min == key_max) return;
  unsigned split_byte = kBytes - 1;
  while (((key_min >> (split_byte * 8)) & 0xffu) == ((key_max >> (split_byte * 8)) & 0xffu)) {
    --split_byte;
  }
  const unsigned shift = split_byte * 8;

  // Per-chunk histograms.
  const int workers = num_threads();
  const std::size_t chunk = (n + static_cast<std::size_t>(workers) - 1) /
                            static_cast<std::size_t>(workers);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  std::vector<std::array<std::uint32_t, 256>> chunk_hist(n_chunks);
  parallel_for(0, static_cast<std::int64_t>(n_chunks), [&](std::int64_t c) {
    auto& hist = chunk_hist[static_cast<std::size_t>(c)];
    hist.fill(0);
    const std::size_t lo = static_cast<std::size_t>(c) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      ++hist[static_cast<std::size_t>((keys[i] >> shift) & 0xffu)];
    }
  }, grain::kTask);

  // Exclusive offsets: bucket-major, then chunk within bucket (stability).
  std::array<std::uint32_t, 256> bucket_start{};
  {
    std::uint32_t sum = 0;
    for (unsigned b = 0; b < 256; ++b) {
      bucket_start[b] = sum;
      for (std::size_t c = 0; c < n_chunks; ++c) sum += chunk_hist[c][b];
    }
  }
  std::vector<std::array<std::uint32_t, 256>> chunk_offset(n_chunks);
  {
    std::array<std::uint32_t, 256> running = bucket_start;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      chunk_offset[c] = running;
      for (unsigned b = 0; b < 256; ++b) running[b] += chunk_hist[c][b];
    }
  }

  // Parallel stable scatter into the scratch arrays.
  parallel_for(0, static_cast<std::int64_t>(n_chunks), [&](std::int64_t c) {
    auto offset = chunk_offset[static_cast<std::size_t>(c)];
    const std::size_t lo = static_cast<std::size_t>(c) * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      const Key k = keys[i];
      const std::uint32_t dst = offset[static_cast<std::size_t>((k >> shift) & 0xffu)]++;
      key_buf[dst] = k;
      val_buf[dst] = values[i];
    }
  }, grain::kTask);
  keys.swap(key_buf);
  values.swap(val_buf);

  // LSD on the lower bytes of each bucket, buckets in parallel. Scratch
  // reuses the (now stale) buffers at matching offsets.
  parallel_for(0, 256, [&](std::int64_t b) {
    const std::uint32_t lo = bucket_start[static_cast<std::size_t>(b)];
    const std::uint32_t hi = (b == 255) ? static_cast<std::uint32_t>(n)
                                        : bucket_start[static_cast<std::size_t>(b) + 1];
    if (hi - lo < 2) return;
    lsd_sort(keys.data() + lo, values.data() + lo, hi - lo, split_byte,
             key_buf.data() + lo, val_buf.data() + lo);
  }, grain::kTask);
}

}  // namespace

void radix_sort_pairs(std::vector<std::uint32_t>& keys, std::vector<std::uint32_t>& values) {
  radix_sort_impl(keys, values);
}

void radix_sort_pairs(std::vector<std::uint64_t>& keys, std::vector<std::uint32_t>& values) {
  radix_sort_impl(keys, values);
}

}  // namespace rtnn
