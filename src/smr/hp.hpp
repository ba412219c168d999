// HP: hazard pointers (Michael 2004), in the two variants the paper
// evaluates:
//
//  * `HpDomain`    — the original scheme: every limbo-list scan re-reads the
//                    global hazard array once per retired node.
//  * `HpOptDomain` — "HPopt": captures one local snapshot of all hazard slots
//                    before scanning the limbo list and binary-searches it
//                    (the optimization the paper borrows from Hyaline [26]).
//                    The paper reports a substantial difference in some
//                    tests; bench_micro_smr and the figure benches expose it.
//
// protect(src, idx) implements Figure 1 of the paper: publish the pointer
// (with logical-deletion bits cleared) in slot `idx`, then re-read `src`
// until it is stable.  dup(i, j) copies slot i to slot j; SCOT requires all
// dup calls to copy toward *higher* indices because scans read slots in
// ascending order (see DESIGN.md §4).
//
// The hazard slots live inside the Handle (one cache-line-isolated block
// per registry record) and scans walk the live registry; leave() clears the
// slots before the shared skeleton (smr/domain_core.hpp) scans and donates
// the leftover limbo.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/asymfence.hpp"
#include "common/chunked_list.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/domain_core.hpp"

namespace scot {

template <bool kSnapshotScan>
class HazardPointerDomain
    : public DomainCore<HazardPointerDomain<kSnapshotScan>> {
  using Core = DomainCore<HazardPointerDomain>;

 public:
  static constexpr const char* kName = kSnapshotScan ? "HPopt" : "HP";
  static constexpr bool kRobust = true;

  class Handle
      : public LimboHandle<HazardPointerDomain, Handle, /*kRetireEra=*/false> {
    using Base = LimboHandle<HazardPointerDomain, Handle, false>;

   public:
    Handle(HazardPointerDomain* dom, unsigned tid)
        : Base(dom, tid),
          slots_(new std::atomic<ReclaimNode*>[dom->cfg_.slots_per_thread]) {
      for (unsigned i = 0; i < dom->cfg_.slots_per_thread; ++i)
        slots_[i].store(nullptr, std::memory_order_relaxed);
    }

   protected:
    // HazardPointerDomain is a template, so the base is dependent and its
    // members need explicit re-introduction (limbo_ stays this->-qualified:
    // a using-declaration would hide it from DomainCore, the base's friend).
    using Base::dom_;
    using Base::tid_;

   public:
    using Base::stats_;  // public in the base (obs cell; reclaimer reads it)

    void begin_op() noexcept {}

    // Clears every slot this operation touched (release: the nodes remain
    // valid until the store is visible; nothing in this thread reads them
    // afterwards).
    void end_op() noexcept {
      while (used_mask_ != 0) {
        const unsigned idx =
            static_cast<unsigned>(__builtin_ctz(used_mask_));
        used_mask_ &= used_mask_ - 1;
        slots_[idx].store(nullptr, std::memory_order_release);
      }
    }

    // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
    template <class Src, class P = typename Src::value_type>
    P protect(const Src& src, unsigned idx) noexcept {
      P cur = src.load(std::memory_order_acquire);
      const asymfence::Path fences = dom_->fence_path_;
      if (fences == asymfence::Path::kClassic) {
        for (;;) {
          // seq_cst publish followed by a seq_cst re-read gives the
          // StoreLoad ordering the HP safety argument requires: if the
          // re-read still sees `cur`, the publication preceded any
          // subsequent unlink of the link we loaded from, so a retirement
          // scan must observe the slot.
          slots_[idx].store(smr_raw(cur), std::memory_order_seq_cst);
          P again = src.load(std::memory_order_seq_cst);
          if (again == cur) break;
          cur = again;
        }
      } else {
        for (;;) {
          // Asymmetric fast path: the StoreLoad edge above is restored by
          // the heavy barrier every scan issues before reading the slots
          // (DESIGN.md §5).  On the fallback path light_barrier() is a real
          // seq_cst fence, making the pair equivalent to the classic code.
          slots_[idx].store(smr_raw(cur), std::memory_order_release);
          asymfence::light_barrier(fences);
          P again = src.load(std::memory_order_acquire);
          if (again == cur) break;
          cur = again;
        }
      }
      used_mask_ |= 1u << idx;
      return cur;
    }

    // Non-validating publication, for immortal anchors (sentinel nodes that
    // are never retired).  Do NOT use for reclaimable nodes.
    template <class T>
    void publish(T* p, unsigned idx) noexcept {
      if (dom_->fence_path_ == asymfence::Path::kClassic) {
        slots_[idx].store(smr_raw(p), std::memory_order_seq_cst);
      } else {
        slots_[idx].store(smr_raw(p), std::memory_order_release);
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

    void scan() {
      obs::TraceSpan span(obs::TraceKind::kScan);
      const std::uint64_t stats_t0 = obs::scan_begin(stats_);
      // One heavy barrier covers the whole scan batch: every node in the
      // limbo list was unlinked (and retired) before this point, so a
      // reader publication the barrier does not surface belongs to a
      // validating re-read that is ordered after the unlink and retries.
      // The registry head is read after the barrier, so the same argument
      // covers records of late-joining threads (DESIGN.md §7).
      if (dom_->fence_path_ != asymfence::Path::kClassic) {
        asymfence::heavy_barrier(dom_->fence_path_);
        obs::count(stats_, obs::Counter::kHeavyBarriers);
      }
      std::uint64_t freed = 0;
      if constexpr (kSnapshotScan) {
        snapshot_.clear();
        dom_->collect_hazards(snapshot_);
        std::sort(snapshot_.begin(), snapshot_.end());
        ReclaimNode* n = this->limbo_.take();
        while (n != nullptr) {
          ReclaimNode* next = n->smr_next;
          if (std::binary_search(snapshot_.begin(), snapshot_.end(), n)) {
            this->limbo_.push(n);
          } else {
            dom_->pool().free(tid_, n, n->alloc_size);
            ++freed;
          }
          n = next;
        }
      } else {
        ReclaimNode* n = this->limbo_.take();
        while (n != nullptr) {
          ReclaimNode* next = n->smr_next;
          if (dom_->is_hazard(n)) {
            this->limbo_.push(n);
          } else {
            dom_->pool().free(tid_, n, n->alloc_size);
            ++freed;
          }
          n = next;
        }
      }
      dom_->counters_.on_free(freed, dom_->cfg_.track_stats);
      obs::scan_end(stats_, stats_t0, freed);
    }

    // Leave pre-step: clear the hazard slots (no operation may be in
    // flight, so nothing still relies on them).
    void prepare_leave() noexcept { end_op(); }

   private:
    friend class HazardPointerDomain;

    // Per-thread hazard slots (the record's alignment isolates them from
    // other threads' lines); sized by cfg.slots_per_thread at handle
    // construction, reused across join/leave cycles.
    std::unique_ptr<std::atomic<ReclaimNode*>[]> slots_;
    std::uint32_t used_mask_ = 0;
    // HPopt scratch, reused across scans; grows without bound instead of
    // being pre-reserved per thread.
    ChunkedList<ReclaimNode*> snapshot_;
  };

  explicit HazardPointerDomain(SmrConfig cfg = {}) : Core(cfg) {
    assert(cfg.slots_per_thread <= 32);
    this->start_configured();
  }
  ~HazardPointerDomain() { this->shutdown(); }

  bool is_hazard(const ReclaimNode* n) const noexcept {
    for (const auto* r = this->registry_.head(); r != nullptr;
         r = r->next_record()) {
      for (unsigned i = 0; i < this->cfg_.slots_per_thread; ++i) {
        if (r->handle.slots_[i].load(std::memory_order_acquire) == n)
          return true;
      }
    }
    return false;
  }

  // Ascending slot order within each record; paired with ascending-index
  // dup this guarantees a protected node is seen in at least one slot
  // (paper §3.2).  Walks the live registry — records of departed threads
  // hold cleared slots and cost one load each.  `Out` is any push_back-able
  // container (ChunkedList in scans, std::vector in tests).
  template <class Out>
  void collect_hazards(Out& out) const {
    for (const auto* r = this->registry_.head(); r != nullptr;
         r = r->next_record()) {
      for (unsigned i = 0; i < this->cfg_.slots_per_thread; ++i) {
        ReclaimNode* v = r->handle.slots_[i].load(std::memory_order_acquire);
        if (v != nullptr) out.push_back(v);
      }
    }
  }
};

using HpDomain = HazardPointerDomain<false>;
using HpOptDomain = HazardPointerDomain<true>;

}  // namespace scot
