// Global operator new/delete replacement that counts allocations per thread
// (see alloc_count.hpp).  Memory comes from malloc / aligned_alloc and goes
// back through free, so every replaced new pairs with a replaced delete.
#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t tAllocations = 0;

void* allocate(std::size_t size) {
  ++tAllocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocateAligned(std::size_t size, std::align_val_t alignment) {
  ++tAllocations;
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocateNoThrow(std::size_t size) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

namespace edgesim {

std::uint64_t threadAllocations() { return tAllocations; }

}  // namespace edgesim

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocateNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocateNoThrow(size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return allocateAligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return allocateAligned(size, alignment);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
