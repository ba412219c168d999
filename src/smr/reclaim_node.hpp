// Intrusive metadata shared by every SMR scheme in the library.
//
// All nodes managed by a reclamation domain derive from `ReclaimNode`.  The
// header fields are only touched by the *owner* of the node's current
// lifecycle stage (allocator, data structure, retire list, reclaimer), never
// concurrently, with one deliberate exception: the node's **birth era**.
//
// The birth era is read by Hyaline-1S `protect()` calls that may race with
// reclamation of the node (see the SCOT paper, Section 2.2.5: a thread must
// restart its operation when it observes a node born after the era it
// published on entry).  To make that read safe we keep the birth era *outside*
// the C++ node object, in a 16-byte allocation header that the node pool
// never scribbles over: freeing a node preserves its birth era, and reusing
// the memory stores the (strictly larger) new era before the node is
// published.  A racing reader therefore observes either the old era or a
// newer one — both make its safety check conservative, never unsound.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace scot {

struct ReclaimNode {
  // One word per scheme family; a domain only ever uses one of the two.
  union {
    // Epoch/era at which the node was retired (EBR epoch, HE/IBR era).
    // Written once by retire(); read only by reclamation scans.
    std::uint64_t retire_era = 0;
    // Hyaline only: the batch handle holding the reference counter.
    void* batch;
  };

  // Multi-purpose link, used at mutually exclusive lifecycle stages:
  //  - limbo-list link (EBR/HP/HE/IBR),
  //  - batch-membership link (Hyaline),
  //  - pool free-list link (after reclamation).
  ReclaimNode* smr_next = nullptr;

  // Hyaline only: link in a reservation slot's retirement list.  A batch
  // inserts a *distinct* member node into each active slot, so this link is
  // never shared between slots.
  ReclaimNode* slot_next = nullptr;

  // Size the pool handed out for this node (excluding the allocation
  // header).  Needed so that type-erased reclamation paths (limbo scans,
  // Hyaline batch frees) can return the memory to the right size class.
  std::uint32_t alloc_size = 0;
  std::uint32_t debug_state = 0;  // lifecycle breadcrumb for assertions
};
// 32 bytes: a node with up to 64 bytes of its own fields fits a 96-byte
// pool cell behind the 16-byte allocation header (the kv list node does).
static_assert(sizeof(ReclaimNode) == 32);

// Lifecycle breadcrumbs (debug only; checked by tests and assertions).
enum : std::uint32_t {
  kNodeLive = 0x11111111u,
  kNodeRetired = 0x22222222u,
  kNodeFreed = 0x33333333u,
};

// The out-of-band allocation header described above.  `birth_era` must stay
// at a fixed offset from the node and must survive free/reuse cycles.
struct AllocHeader {
  std::atomic<std::uint64_t> birth_era;
  std::uint64_t pad;
};
static_assert(sizeof(AllocHeader) == 16);

inline AllocHeader* header_of(void* node) noexcept {
  return reinterpret_cast<AllocHeader*>(static_cast<std::byte*>(node) -
                                        sizeof(AllocHeader));
}

inline const AllocHeader* header_of(const void* node) noexcept {
  return reinterpret_cast<const AllocHeader*>(
      static_cast<const std::byte*>(node) - sizeof(AllocHeader));
}

inline std::uint64_t birth_era_of(const ReclaimNode* n) noexcept {
  return header_of(n)->birth_era.load(std::memory_order_acquire);
}

// Customization point: extracts the raw ReclaimNode* that hazard slots should
// publish from a value loaded out of a data-structure link.  `marked_ptr`
// (src/core/marked_ptr.hpp) provides an overload found via ADL.
template <class T>
inline ReclaimNode* smr_raw(T* p) noexcept {
  return p ? static_cast<ReclaimNode*>(p) : nullptr;
}

}  // namespace scot
