// Memory regions aligned to 2 MB and advised for transparent huge pages.
//
// The node pool's chunks and the kv directory's large segments come from
// here (DESIGN.md §4, §10): their working sets exceed what the TLB covers
// with 4 KB pages, so almost every node or bucket visit would also pay a
// page walk.  On Linux a region is an anonymous mapping, over-mapped by
// 2 MB and trimmed to an exactly 2 MB-aligned span, then advised with
// MADV_HUGEPAGE.  If the kernel declines the advice (THP disabled, no
// contiguous memory), the region simply stays on 4 KB pages.  Elsewhere the
// helper falls back to a 2 MB-aligned operator new.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace scot {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

// `bytes` rounded up to whole huge pages.
constexpr std::size_t huge_page_round_up(std::size_t bytes) noexcept {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

// Returns `bytes` (a multiple of kHugePageBytes) of writable memory aligned
// to kHugePageBytes, with unspecified contents.  Throws std::bad_alloc.
inline void* huge_page_alloc(std::size_t bytes) {
#if defined(__linux__)
  const std::size_t span = bytes + kHugePageBytes;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const auto aligned = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::size_t head = aligned - base;
  const std::size_t tail = span - head - bytes;
  if (head != 0) ::munmap(raw, head);
  if (tail != 0) ::munmap(reinterpret_cast<void*>(aligned + bytes), tail);
  ::madvise(reinterpret_cast<void*>(aligned), bytes, MADV_HUGEPAGE);
  return reinterpret_cast<void*>(aligned);
#else
  return ::operator new(bytes, std::align_val_t{kHugePageBytes});
#endif
}

// Releases a region from huge_page_alloc(bytes).
inline void huge_page_free(void* p, std::size_t bytes) noexcept {
#if defined(__linux__)
  ::munmap(p, bytes);
#else
  ::operator delete(p, bytes, std::align_val_t{kHugePageBytes});
#endif
}

}  // namespace scot
