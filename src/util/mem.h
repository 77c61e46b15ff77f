// Cache-line-aligned storage for the hot search arrays.
//
// The CSR search kernels are memory-bound: the per-node SoA rows
// (distances, heap keys, parents) and the packed head/weight arrays are
// streamed by every relaxation.  Aligning each array to a cache-line
// boundary keeps one logical row from straddling two lines.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace lumen {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal cache-line-aligned allocator (C++17 aligned operator new).
template <class T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() noexcept = default;
  template <class U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <class U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose storage starts on a cache-line boundary.
template <class T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

}  // namespace lumen
