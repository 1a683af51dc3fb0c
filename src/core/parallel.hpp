// Shared-memory parallel primitives.
//
// The paper's "SM-side" CUDA kernels (Morton sort, megacell growth, query
// reordering) become OpenMP data-parallel loops over the same flat
// buffers. This header is the single place that touches OpenMP; the rest
// of the codebase expresses parallelism through parallel_for/parallel_reduce
// so it also builds (serially) without OpenMP.
//
// Thread count resolution order: explicit set_num_threads() call,
// RTNN_THREADS environment variable, then OpenMP's default.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtnn {

/// Number of worker threads parallel_for will use.
int num_threads();

/// Override the worker count (0 = reset to environment/OpenMP default).
/// Used by benches to model differently-sized devices (paper evaluates on
/// both an RTX 2080 and an RTX 2080Ti).
void set_num_threads(int n);

/// Index of the calling worker within the active parallel region, in
/// [0, num_threads()); 0 outside any region. The anchor for lock-free
/// per-thread accumulation (see rt::StatsAccumulator).
int worker_index();

/// Per-call-site grain constants for parallel_for: the minimum number of
/// items one task must amortize before forking is worth it. Launches issue
/// many tiny loops (one per partition chunk), so call sites pick the named
/// constant matching their per-item cost instead of guessing; tune here,
/// not at the call site.
namespace grain {
/// Catch-all for unannotated loops (the old hardcoded 1024).
inline constexpr std::int64_t kDefault = 1024;
/// Trivial bodies, a few flops per item: AABB generation, Morton encoding,
/// SoA bounds fills.
inline constexpr std::int64_t kElementwise = 4096;
/// One warp per item: an aligned group of 32 launch indices, 32 full tree
/// walks, that one thread runs whole (every rt::trace launch, in either
/// execution model). 16 warps (512 rays) per task at least.
inline constexpr std::int64_t kWarp = 16;
/// Pre-chunked task lists where each item is already a large block of work
/// (subtree builds, radix buckets, per-chunk scatters).
inline constexpr std::int64_t kTask = 1;
}  // namespace grain

namespace detail {

/// Non-owning reference to a `void(int64_t lo, int64_t hi)` callable. The
/// dispatch loop crosses a TU boundary, but the body must not be copied
/// into a std::function on the hot path — launches issue many tiny loops.
class RangeBodyRef {
 public:
  template <typename Body>
    requires(!std::is_same_v<std::remove_cvref_t<Body>, RangeBodyRef>)
  RangeBodyRef(Body&& body)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&body))),
        invoke_([](void* obj, std::int64_t lo, std::int64_t hi) {
          (*static_cast<std::remove_reference_t<Body>*>(obj))(lo, hi);
        }) {}

  void operator()(std::int64_t lo, std::int64_t hi) const { invoke_(obj_, lo, hi); }

 private:
  void* obj_;
  void (*invoke_)(void*, std::int64_t, std::int64_t);
};

void parallel_for_impl(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       RangeBodyRef body);
}  // namespace detail

/// Invokes `body(i)` for every i in [begin, end), split across threads.
/// `grain` is the minimum chunk size per task; loops smaller than `grain`
/// run serially (important: many per-partition launches are tiny).
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, Body&& body,
                  std::int64_t grain = grain::kDefault) {
  detail::parallel_for_impl(begin, end, grain,
                            [&body](std::int64_t lo, std::int64_t hi) {
                              for (std::int64_t i = lo; i < hi; ++i) body(i);
                            });
}

/// Invokes `body(lo, hi)` on contiguous sub-ranges (for algorithms that
/// want per-chunk state, e.g. per-thread histograms).
template <typename Body>
void parallel_for_chunks(std::int64_t begin, std::int64_t end, Body&& body,
                         std::int64_t grain = grain::kDefault) {
  detail::parallel_for_impl(begin, end, grain, body);
}

/// Parallel reduction: result = reduce over i of map(i), combined with `op`.
template <typename T, typename Map, typename Op>
T parallel_reduce(std::int64_t begin, std::int64_t end, T init, Map&& map, Op&& op,
                  std::int64_t grain = grain::kDefault) {
  if (end <= begin) return init;
  const int workers = num_threads();
  // Chunked so each worker folds locally, then a serial combine.
  struct Slot { T value; bool used; };
  const std::int64_t n = end - begin;
  const std::int64_t chunk = std::max<std::int64_t>(grain, (n + workers - 1) / workers);
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>((n + chunk - 1) / chunk));
  for (std::int64_t lo = begin; lo < end; lo += chunk) {
    slots.push_back(Slot{init, false});
  }
  detail::parallel_for_impl(0, static_cast<std::int64_t>(slots.size()), 1,
                            [&](std::int64_t slo, std::int64_t shi) {
                              for (std::int64_t s = slo; s < shi; ++s) {
                                const std::int64_t lo = begin + s * chunk;
                                const std::int64_t hi = std::min(end, lo + chunk);
                                T acc = init;
                                for (std::int64_t i = lo; i < hi; ++i) acc = op(acc, map(i));
                                slots[static_cast<std::size_t>(s)] = Slot{acc, true};
                              }
                            });
  T result = init;
  for (const Slot& s : slots) {
    if (s.used) result = op(result, s.value);
  }
  return result;
}

/// One-shot completion latch: wait() blocks until some other thread calls
/// signal(). This is the synchronization primitive behind service tickets
/// (src/service): the submitting thread parks on the event while the
/// dispatcher serves the coalesced batch. signal() may be called at most
/// once; waiting after the signal returns immediately forever.
class CompletionEvent {
 public:
  void signal();
  void wait() const;
  /// True when the event fired within `timeout`; false on timeout. A
  /// zero or negative timeout never blocks: it returns the current
  /// state immediately (a poll).
  bool wait_for(std::chrono::nanoseconds timeout) const;
  bool signaled() const;

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool done_ = false;
};

/// Unbounded multi-producer/multi-consumer FIFO with close semantics —
/// the hand-off between request submitters and the service's dispatcher.
/// push() enqueues (refused once closed); pop() blocks for the next item;
/// close() wakes every blocked consumer, after which pops drain the
/// remaining items and then return nullopt. All operations are
/// linearizable under the internal mutex: items pop in push order.
template <typename T>
class WorkQueue {
 public:
  /// Enqueues `item`; returns false (dropping the item) once closed.
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks for the next item; nullopt once closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    return take_locked();
  }

  /// Like pop(), but gives up after `timeout` (nullopt on timeout too).
  std::optional<T> pop_for(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, timeout, [&] { return !items_.empty() || closed_; });
    return take_locked();
  }

  /// Refuses further pushes and wakes every blocked consumer. Items
  /// already queued remain poppable (a closing service drains in-flight
  /// requests instead of dropping them).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  std::optional<T> take_locked() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace rtnn
