// Global operator new/delete replacement that counts heap allocations, for
// allocation-regression tests. Include from EXACTLY ONE translation unit of
// a test binary (the replacement functions are definitions, not
// declarations); never include from library code.
#ifndef ANTIMR_TESTS_ALLOC_COUNTER_H_
#define ANTIMR_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdlib>
#include <new>

namespace test_alloc {

inline std::atomic<uint64_t>& Counter() {
  static std::atomic<uint64_t> count{0};
  return count;
}

/// Total operator-new calls in this binary so far. Diff around the code
/// under test; gtest/test-fixture noise between the two reads is on the
/// test to keep out of the window.
inline uint64_t AllocationCount() {
  return Counter().load(std::memory_order_relaxed);
}

}  // namespace test_alloc

// noinline keeps GCC from inlining a replacement into its caller, where it
// would see malloc paired with a sized delete and warn
// (-Wmismatched-new-delete) about a pairing that is correct.
[[gnu::noinline]] void* operator new(std::size_t size) {
  test_alloc::Counter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  test_alloc::Counter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, their memory would reach the replaced delete below,
// an allocator mismatch that AddressSanitizer reports.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  test_alloc::Counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  test_alloc::Counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // ANTIMR_TESTS_ALLOC_COUNTER_H_
