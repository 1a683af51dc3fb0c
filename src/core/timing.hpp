// Timing utilities and the per-phase time breakdown of paper Figure 12.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>

namespace rtnn {

/// Wall-clock stopwatch (steady clock, double seconds).
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double elapsed() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates seconds into a double on scope exit.
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(double& sink) : sink_(sink) {}
  ~ScopedAccumulator() { sink_ += timer_.elapsed(); }
  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;

 private:
  double& sink_;
  Timer timer_;
};

/// The phases the paper breaks end-to-end search time into (Figure 12):
/// Data (host<->device transfers), Opt (applying the optimizations:
/// reordering + partitioning), BVH (acceleration-structure builds from
/// scratch), FS (the paper's first, truncated search that finds first-hit
/// AABBs) and Search (the actual neighbor search). FS reads 0 here: the
/// scheduler keys queries by their own positions and casts no first-hit
/// rays (rtnn/scheduler.hpp). Dynamic point-cloud sequences add Refit:
/// in-place acceleration-structure refreshes that amortize the BVH phase
/// across frames (zero on static workloads).
struct TimeBreakdown {
  double data = 0.0;
  double opt = 0.0;
  double bvh = 0.0;
  double refit = 0.0;
  double first_search = 0.0;
  double search = 0.0;

  double total() const { return data + opt + bvh + refit + first_search + search; }

  TimeBreakdown& operator+=(const TimeBreakdown& o) {
    data += o.data;
    opt += o.opt;
    bvh += o.bvh;
    refit += o.refit;
    first_search += o.first_search;
    search += o.search;
    return *this;
  }

  /// "Data Opt BVH FS Search" percentages, for the Figure 12 bench (the
  /// refit phase is folded into the BVH column there: both are
  /// acceleration-structure maintenance, and Figure 12 is static anyway).
  std::string percent_row() const;
};

std::ostream& operator<<(std::ostream& os, const TimeBreakdown& tb);

}  // namespace rtnn
