// A vector whose resize() leaves the new elements unwritten.
//
// std::vector value-initializes every element resize() adds, on the
// calling thread. For a build's large arrays that is one serial pass of
// page faults (the first write to freshly mapped memory) before the
// parallel tasks that compute the elements overwrite them. With
// UninitVector the task that computes an element is the first to write
// it. Every element must be written before it is read; copies, push_back
// and emplace_back with arguments construct as usual.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtnn {

template <typename T>
struct UninitAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "only trivially copyable elements may start unwritten");
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };

  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Default construction (resize(), emplace_back()) writes nothing.
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

}  // namespace rtnn
