// Cache-line alignment helpers shared by the SMR schemes and the benchmark
// harness.  Per-thread metadata that is written on the hot path (hazard
// slots, era reservations, operation counters) must live on its own cache
// line, otherwise the cross-thread scans performed during reclamation turn
// into false-sharing storms.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace scot {

// std::hardware_destructive_interference_size is 64 on x86-64 with GCC, but
// adjacent-line prefetching makes 128 the safe padding unit for data that is
// both written locally and scanned remotely (this is what most published SMR
// implementations, including the Hazard Eras and IBR benchmarks, use).
inline constexpr std::size_t kCacheLine = 64;
inline constexpr std::size_t kFalseSharingRange = 128;

// Wraps a value so that it occupies (at least) one false-sharing range.
template <class T>
struct alignas(kFalseSharingRange) Padded {
  T value{};

  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
};

// A heap array that starts on a false-sharing boundary and fills whole
// ranges, so no other allocation shares its lines (plain new[] would let
// two threads' small arrays share one).
struct PaddedArrayDelete {
  void operator()(void* p) const noexcept {
    ::operator delete[](p, std::align_val_t{kFalseSharingRange});
  }
};
template <class T>
using PaddedArray = std::unique_ptr<T[], PaddedArrayDelete>;

// `n` elements, each constructed from `init`.
template <class T, class Init>
PaddedArray<T> make_padded_array(std::size_t n, const Init& init) {
  static_assert(std::is_trivially_destructible_v<T>);
  const std::size_t bytes =
      (n * sizeof(T) + kFalseSharingRange - 1) / kFalseSharingRange *
      kFalseSharingRange;
  T* p = static_cast<T*>(
      ::operator new[](bytes, std::align_val_t{kFalseSharingRange}));
  for (std::size_t i = 0; i < n; ++i) new (p + i) T(init);
  return PaddedArray<T>(p);
}

}  // namespace scot
