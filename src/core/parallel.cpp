#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#ifdef RTNN_HAVE_OPENMP
#include <omp.h>
#endif

namespace rtnn {

namespace {

std::atomic<int> g_thread_override{0};

int env_threads() {
  if (const char* env = std::getenv("RTNN_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 0;
}

}  // namespace

int num_threads() {
  const int forced = g_thread_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  if (const int env = env_threads(); env > 0) return env;
#ifdef RTNN_HAVE_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_num_threads(int n) {
  g_thread_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int worker_index() {
#ifdef RTNN_HAVE_OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

namespace detail {

void parallel_for_impl(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       RangeBodyRef body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const int workers = num_threads();
  if (workers <= 1 || n <= grain) {
    body(begin, end);
    return;
  }
#ifdef RTNN_HAVE_OPENMP
  // Static partition into roughly 4 chunks per worker (load balance for
  // skewed work such as megacell growth in clustered datasets) but never
  // below `grain`.
  const std::int64_t target_chunks = static_cast<std::int64_t>(workers) * 4;
  const std::int64_t chunk = std::max(grain, (n + target_chunks - 1) / target_chunks);
  const std::int64_t num_chunks = (n + chunk - 1) / chunk;
#pragma omp parallel for schedule(dynamic, 1) num_threads(workers)
  for (std::int64_t c = 0; c < num_chunks; ++c) {
    const std::int64_t lo = begin + c * chunk;
    const std::int64_t hi = std::min(end, lo + chunk);
    body(lo, hi);
  }
#else
  body(begin, end);
#endif
}

}  // namespace detail

void CompletionEvent::signal() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
}

void CompletionEvent::wait() const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
}

bool CompletionEvent::wait_for(std::chrono::nanoseconds timeout) const {
  std::unique_lock<std::mutex> lock(mutex_);
  // Zero/negative timeouts poll: report the current state without ever
  // blocking. (Also sidesteps the overflow in now() + timeout that a
  // nanoseconds::min() deadline computation would hit inside wait_for.)
  if (timeout <= std::chrono::nanoseconds::zero()) return done_;
  return cv_.wait_for(lock, timeout, [&] { return done_; });
}

bool CompletionEvent::signaled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

}  // namespace rtnn
