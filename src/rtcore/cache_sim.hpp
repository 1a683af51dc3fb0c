// Two-level set-associative cache simulator.
//
// The paper's Figure 6 explains the raster-vs-random gap through
// micro-architectural counters: L1/L2 hit rate and SM occupancy. Our
// substrate replays the traversal engine's BVH-node and primitive fetches
// through this model to produce the same counters. kL1 and kL2 approximate
// a Turing SM: a 64 KiB L1 and a 4 MiB L2, 128-byte lines, LRU. A
// simulated launch runs on one thread through one hierarchy, so both
// levels see every fetch of the launch, in launch order.
#pragma once

#include <cstdint>
#include <vector>

namespace rtnn::rt {

struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 128;
  std::uint32_t ways = 4;
};

/// The modeled hierarchy of every cache-simulated launch.
inline constexpr CacheConfig kL1{64 * 1024, 128, 4};
inline constexpr CacheConfig kL2{4 * 1024 * 1024, 128, 16};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;

  double hit_rate() const {
    return accesses ? static_cast<double>(hits) / static_cast<double>(accesses) : 0.0;
  }

  CacheStats& operator+=(const CacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    return *this;
  }
  bool operator==(const CacheStats&) const = default;
};

/// Single cache level, LRU replacement within each set.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Returns true on hit; on miss the line is installed.
  bool access(std::uint64_t address);

  const CacheStats& stats() const { return stats_; }
  std::uint32_t line_bytes() const { return config_.line_bytes; }
  void reset();

 private:
  struct Line {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  CacheConfig config_;
  std::uint32_t num_sets_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;  // num_sets_ * ways, row-major by set
  CacheStats stats_;
};

/// An L1 in front of an L2 (kL1 and kL2 by default). The traversal engine
/// runs a simulated launch on one thread through one MemoryHierarchy.
class MemoryHierarchy {
 public:
  MemoryHierarchy(const CacheConfig& l1, const CacheConfig& l2) : l1_(l1), l2_(l2) {}
  MemoryHierarchy() : MemoryHierarchy(kL1, kL2) {}

  void access(std::uint64_t address) {
    if (!l1_.access(address)) l2_.access(address);
  }

  /// Touches every cache line in [address, address + bytes) — one access
  /// per line, the way a streaming fetch of a multi-line object (e.g. an
  /// 80 B compressed wide node straddling two lines) lands in hardware.
  /// The line walk uses the L1's line size; the L2 line size is the same
  /// in every configuration we model (both default to 128 B).
  void access_range(std::uint64_t address, std::uint64_t bytes) {
    if (bytes == 0) return;
    const std::uint64_t line = l1_.line_bytes();
    const std::uint64_t first = address / line;
    const std::uint64_t last = (address + bytes - 1) / line;
    for (std::uint64_t l = first; l <= last; ++l) access(l * line);
  }

  const CacheStats& l1_stats() const { return l1_.stats(); }
  const CacheStats& l2_stats() const { return l2_.stats(); }
  void reset() {
    l1_.reset();
    l2_.reset();
  }

 private:
  Cache l1_;
  Cache l2_;
};

}  // namespace rtnn::rt
