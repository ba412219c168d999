// HE: hazard eras (Ramalhete & Correia, SPAA 2017), with the reservation-
// snapshot scan optimization the paper applies to it (Section 5: "we
// implemented a similar optimization for HE and IBR").
//
// HE keeps the hazard-pointer programming model (indexed protection slots,
// dup) but publishes *eras* instead of pointers: protect(idx) records the
// global era at which the load was performed.  A retired node is reclaimable
// once no published era intersects its [birth, retire] lifetime.  Compared to
// HP this replaces the per-node publication fence with (amortized) one fence
// per era change.
//
// Each Handle owns a padded heap array of era slots, laid out as in HP;
// scans walk the live registry.  leave() clears the slots before the shared
// skeleton (smr/domain_core.hpp) scans and donates the leftover limbo.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/align.hpp"
#include "common/asymfence.hpp"
#include "common/chunked_list.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/domain_core.hpp"

namespace scot {

class HeDomain : public DomainCore<HeDomain> {
 public:
  static constexpr const char* kName = "HE";
  static constexpr bool kRobust = true;
  static constexpr std::uint64_t kIdleEra = 0;  // eras start at 1

  class Handle : public LimboHandle<HeDomain, Handle, /*kRetireEra=*/true> {
   public:
    Handle(HeDomain* dom, unsigned tid)
        : LimboHandle(dom, tid),
          slots_(make_padded_array<std::atomic<std::uint64_t>>(
              dom->cfg_.slots_per_thread, kIdleEra)) {}

    // HE has no eager activation store: an operation becomes visible to
    // reclaimers at its *first slot publish* (end_op cleared every slot, so
    // the first protect() of the next operation always publishes).  That
    // store already runs the asymmetric discipline below — release +
    // compiler barrier, with the scan-side heavy barrier restoring the
    // StoreLoad edge (DESIGN.md §5, activation case) — so begin_op stays
    // free under both disciplines.
    void begin_op() noexcept {}

    void end_op() noexcept {
      while (used_mask_ != 0) {
        const unsigned idx =
            static_cast<unsigned>(__builtin_ctz(used_mask_));
        used_mask_ &= used_mask_ - 1;
        slots_[idx].store(kIdleEra, std::memory_order_release);
      }
    }
    // HE get_protected: loop until the global era observed after the load
    // equals the era published in the slot.  When the era is already
    // published (the common case within one era period) this is a plain
    // load — the fence amortization that makes HE faster than HP.  Only the
    // era-change publication carries a fence, and that is the store the
    // asymmetric discipline relaxes: the loop's re-read of src/clock must
    // be ordered after the slot store, and scans restore that edge with a
    // heavy barrier before collect_eras() (DESIGN.md §5).
    // `Src` is std::atomic<P> or StableAtomic<P>.
    template <class Src, class P = typename Src::value_type>
    P protect(const Src& src, unsigned idx) noexcept {
      std::uint64_t prev = slots_[idx].load(std::memory_order_relaxed);
      const asymfence::Path fences = dom_->fence_path_;
      for (;;) {
        P v = src.load(std::memory_order_acquire);
        const std::uint64_t e = dom_->clock_.load(std::memory_order_seq_cst);
        if (e == prev) {
          used_mask_ |= 1u << idx;
          return v;
        }
        if (fences == asymfence::Path::kClassic) {
          slots_[idx].store(e, std::memory_order_seq_cst);
        } else {
          slots_[idx].store(e, std::memory_order_release);
          asymfence::light_barrier(fences);
        }
        prev = e;
      }
    }

    template <class T>
    void publish(T* /*p*/, unsigned idx) noexcept {
      // Publishing the current era protects everything alive at it,
      // including the immortal anchor this is used for.
      const std::uint64_t e = dom_->clock_.load(std::memory_order_acquire);
      if (dom_->fence_path_ == asymfence::Path::kClassic) {
        slots_[idx].store(e, std::memory_order_seq_cst);
      } else {
        slots_[idx].store(e, std::memory_order_release);
        asymfence::light_barrier(dom_->fence_path_);
      }
      used_mask_ |= 1u << idx;
    }

    void dup(unsigned i, unsigned j) noexcept {
      assert(i < j && "SCOT requires ascending-index dup (paper §3.2)");
      slots_[j].store(slots_[i].load(std::memory_order_relaxed),
                      std::memory_order_release);
      used_mask_ |= 1u << j;
    }

    static constexpr bool op_valid() noexcept { return true; }
    void revalidate_op() noexcept {}

    std::uint64_t on_alloc_era() noexcept {
      era_tick();
      return dom_->clock_.load(std::memory_order_acquire);
    }

    // `covered`: as for HP — a shared barrier already covers the batch.
    void scan(bool covered = false) {
      obs::TraceSpan span(obs::TraceKind::kScan);
      const std::uint64_t stats_t0 = obs::scan_begin(stats_);
      // Surface in-flight era publications before reading the slots; a
      // publication the barrier does not surface belongs to a reader whose
      // validating re-read is ordered after every unlink in this batch.
      // The registry head is read after the barrier, so the same argument
      // covers records of late-joining threads (DESIGN.md §7).
      limbo_.prefetch();
      reclaim_barrier(covered);
      // Reservation snapshot (sorted) — one pass over the live registry
      // per scan instead of one per retired node.
      snapshot_.clear();
      dom_->collect_eras(snapshot_);
      std::sort(snapshot_.begin(), snapshot_.end());
      std::uint64_t freed = 0;
      ReclaimNode* n = limbo_.take();
      while (n != nullptr) {
        ReclaimNode* next = n->smr_next;
        if (lifetime_reserved(birth_era_of(n), n->retire_era)) {
          limbo_.push(n);
        } else {
          dom_->pool().free(tid_, n, n->alloc_size);
          ++freed;
        }
        n = next;
      }
      count_reclaimed(freed);
      obs::scan_end(stats_, stats_t0);
    }

    // Leave pre-step: clear the era slots (no operation may be in flight).
    void prepare_leave() noexcept { end_op(); }

    // Test hooks (layout pin): the word every protect() writes, the slot
    // array pointer every scan reads, and the array itself.
    const void* used_mask_address() const noexcept { return &used_mask_; }
    const void* slots_address() const noexcept { return &slots_; }
    const void* slot_array() const noexcept { return slots_.get(); }

   private:
    friend class HeDomain;

    // True if some published era lies within [birth, retire].
    bool lifetime_reserved(std::uint64_t birth,
                           std::uint64_t retire) noexcept {
      auto it = std::lower_bound(snapshot_.begin(), snapshot_.end(), birth);
      return it != snapshot_.end() && *it <= retire;
    }

    // Written by every protect(); declared before slots_ so it stays off
    // the line every scan reads.
    std::uint32_t used_mask_ = 0;
    // Per-thread era slots, on padded heap lines of their own; sized by
    // cfg.slots_per_thread at handle construction, reused across join/leave
    // cycles.  The pointer is read by every other thread's scan, so it
    // starts a fresh line.
    alignas(kFalseSharingRange) PaddedArray<std::atomic<std::uint64_t>> slots_;
    // Scan scratch, reused across scans; grows without bound instead of
    // being pre-reserved per thread.
    ChunkedList<std::uint64_t> snapshot_;
  };

  explicit HeDomain(SmrConfig cfg = {}) : DomainCore(cfg) {
    assert(cfg.slots_per_thread <= 32);
    start_configured();
  }
  ~HeDomain() { shutdown(); }

  std::uint64_t era() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }

  // Walks the live registry; records of departed threads hold idle slots.
  // `Out` is any push_back-able container (ChunkedList in scans,
  // std::vector in tests).
  template <class Out>
  void collect_eras(Out& out) const {
    for (const auto* r = registry_.head(); r != nullptr;
         r = r->next_record()) {
      for (unsigned i = 0; i < cfg_.slots_per_thread; ++i) {
        const std::uint64_t e =
            r->handle.slots_[i].load(std::memory_order_acquire);
        if (e != kIdleEra) out.push_back(e);
      }
    }
  }
};

}  // namespace scot
