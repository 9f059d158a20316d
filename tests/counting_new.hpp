// Counting global allocator for the allocation-free tests
// (DigitalMonitor.EstimateAllocatesNothing,
// BatchRunner.StepLoopAllocatesNothing): every plain, array and nothrow
// operator new in the test binary bumps heap_allocations. All of them, and
// the matching deletes, are replaced together so a sanitizer's own
// allocator never frees what malloc returned. They are kept out of line so
// the compiler never sees malloc's result reach a delete-expression and warn
// of a mismatch.
//
// The replacements are definitions with external linkage: include this
// header from exactly one source file of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace msehsim::test_alloc {

/// Heap allocations made through operator new since the binary started.
inline std::atomic<std::size_t> heap_allocations{0};

[[gnu::noinline]] inline void* counted_malloc(std::size_t size) noexcept {
  heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace msehsim::test_alloc

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = msehsim::test_alloc::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  if (void* p = msehsim::test_alloc::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return msehsim::test_alloc::counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                        const std::nothrow_t&) noexcept {
  return msehsim::test_alloc::counted_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
