// Deterministic fault injection: named failpoints compiled into the
// production paths.
//
// A *failpoint* is a named site in real code — the snapshot publish
// ("service.publish"), the LRU eviction pass ("service.evict"), the
// dispatcher tick ("service.dispatch.tick") and each cloud group's launch
// ("service.dispatch.launch") — where a test can make the code fail on
// demand. The sites are always compiled in (RTNN_FAILPOINT below); when
// nothing is armed they cost a single relaxed atomic load, so production
// and bench builds pay nothing measurable. A test arms a site by name with an Action and a firing
// rule, runs the scenario, and asserts the recovery path it wanted to
// exercise actually ran — this is what makes every error branch in the
// serving stack *testable* instead of theoretical (in the spirit of
// POPACheck's systematic exploration: the firing schedule is seeded and
// deterministic, so a failing schedule replays bit-for-bit).
//
// Firing rules (FailConfig):
//   * fire_on_hit = N   fire on exactly the Nth hit of the site (1-based)
//                       — deterministic single-shot placement ("fail the
//                       2nd cloud group to launch").
//   * probability + seed  fire each hit with probability p from a
//                       per-site PCG stream — seeded chaos: the same
//                       seed yields the same firing schedule every run.
//   * max_fires         stop after this many fires (0 = unlimited);
//                       lets a delay site stall once, then heal.
//
// Actions:
//   * kThrow      throw fail::InjectedFault (an rtnn::Error) — models a
//                 backend/registry failure surfacing as an exception.
//   * kDelay      sleep for `delay` — models a stalled thread (what the
//                 service watchdog exists to detect).
//   * kAllocFail  throw std::bad_alloc — models allocation failure at
//                 the site (exercises the same unwind paths real OOM
//                 would take, without actually exhausting memory).
//
// Thread contract: arm/disarm/counters take the registry mutex;
// evaluation takes it only while a site is armed anywhere. Actions run
// outside the lock, so a delay at one site never blocks another site
// (or another arm() call). Tests should prefer the RAII ScopedFailpoint
// so a failing assertion cannot leak an armed site into the next test.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace rtnn::fail {

/// What an armed site does when it fires.
enum class Action : std::uint8_t {
  kThrow,      // throw InjectedFault("failpoint '<name>' fired[: message]")
  kDelay,      // sleep for `delay`, then continue normally
  kAllocFail,  // throw std::bad_alloc
};

/// What kThrow sites throw. Derives from rtnn::Error so every existing
/// recovery path (dispatcher catch, retry loops) treats it like a real
/// backend failure — which is the point.
class InjectedFault : public Error {
 public:
  using Error::Error;
};

/// Firing rule + action for one armed site.
struct FailConfig {
  Action action = Action::kThrow;
  /// Per-hit firing probability when fire_on_hit == 0. 1.0 = every hit.
  double probability = 1.0;
  /// Seed of the site's private PCG stream (deterministic schedules).
  std::uint64_t seed = 0;
  /// Fire on exactly the Nth hit (1-based); 0 = use `probability`.
  std::uint64_t fire_on_hit = 0;
  /// Stop firing after this many fires; 0 = unlimited.
  std::uint64_t max_fires = 0;
  /// Sleep length for kDelay.
  std::chrono::nanoseconds delay{0};
  /// Appended to the InjectedFault message (kThrow only).
  std::string message;
};

/// The process-wide failpoint registry. Sites are created lazily by
/// arm(); evaluation of an unarmed name is a no-op.
class FailpointRegistry {
 public:
  static FailpointRegistry& instance();

  /// Arms (or re-arms, resetting counters) the named site.
  void arm(const std::string& name, FailConfig config);
  /// Disarms the site; keeps nothing. Unknown names are a no-op.
  void disarm(const std::string& name);
  /// Disarms every site (test teardown safety net).
  void disarm_all();

  /// Hits observed while armed (evaluation of a disarmed site counts
  /// nothing). Unknown names return 0.
  std::uint64_t hits(const std::string& name) const;
  /// How many of those hits fired the action.
  std::uint64_t fires(const std::string& name) const;

  /// The site evaluation behind RTNN_FAILPOINT. Fast path: one relaxed
  /// load when nothing is armed anywhere.
  void evaluate(const char* name);

 private:
  FailpointRegistry() = default;

  struct Site {
    FailConfig config;
    Pcg32 rng;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Site> sites_;
  std::atomic<int> armed_{0};  // armed-site count: the fast-path gate
};

/// RAII arm/disarm, so a throwing test body cannot leak an armed site.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, FailConfig config) : name_(std::move(name)) {
    FailpointRegistry::instance().arm(name_, std::move(config));
  }
  ~ScopedFailpoint() { FailpointRegistry::instance().disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  const std::string& name() const { return name_; }
  std::uint64_t hits() const { return FailpointRegistry::instance().hits(name_); }
  std::uint64_t fires() const { return FailpointRegistry::instance().fires(name_); }

 private:
  std::string name_;
};

}  // namespace rtnn::fail

/// A named injection site. Always compiled; free when nothing is armed.
#define RTNN_FAILPOINT(name) ::rtnn::fail::FailpointRegistry::instance().evaluate(name)
