// Hyaline-1S (Nikolaev & Ravindran, PLDI 2021): snapshot-free robust
// reclamation with distributed reference counting.
//
// Mechanics reproduced here:
//  * One reservation *slot* per handle: { head of a retirement list, era }.
//    enter() publishes the current era and activates the slot; leave()
//    detaches the slot's accumulated list and decrements the reference
//    count of every batch that appears on it.
//  * retire() accumulates nodes into a per-thread *batch*.  A full batch is
//    handed to every active slot whose era could allow the owning thread to
//    hold a reference (slot era >= batch min birth era — the "1S" filter);
//    each insertion uses a distinct member node of the batch as the list
//    entry, which is why the batch must have at least as many nodes as
//    there are slots.  With dynamic membership the required batch size is
//    `max(batch_capacity, live records + 1)` — it adapts as threads join.
//  * The batch's reference counter starts with a creator guard so that
//    concurrent leave() decrements cannot hit zero before all insertions
//    are accounted; whichever thread moves the counter to zero frees the
//    whole batch ("reclamation by any thread", the property the paper
//    credits for Hyaline's performance).
//  * Robustness: protect() checks the birth era of the loaded node; if the
//    node is younger than the published era the thread refreshes its
//    reservation and raises a restart flag that the data structures poll
//    via op_valid().  The type-stable pool guarantees this birth-era read
//    is safe even if the node was concurrently reclaimed (see
//    reclaim_node.hpp).
//
// The reservation slot lives inside the Handle and seal_batch() walks the
// live registry.  The unsealed batch is the handle's limbo list, so the
// shared skeleton (smr/domain_core.hpp) donates it whole on leave() — the
// natural Hyaline handoff, since sealed batches are already owned by
// "whoever drops the last reference" — and frees it at teardown.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/asymfence.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/domain_core.hpp"

namespace scot {

class HyalineDomain : public DomainCore<HyalineDomain> {
 public:
  static constexpr const char* kName = "HLN";
  static constexpr bool kRobust = true;

  struct BatchHandle {
    std::atomic<std::int64_t> refs{0};
    ReclaimNode* first = nullptr;
    unsigned count = 0;
  };

  class Handle : public HandleCore<HyalineDomain, Handle> {
   public:
    using HandleCore::HandleCore;
    using HandleCore::retire;  // typed retire(Protected<T>)

    void begin_op() noexcept {
      era_local_ = dom_->clock_.load(std::memory_order_acquire);
      slot_.era.store(era_local_, std::memory_order_release);
      // Activation must be visible to retirers before this operation
      // performs any shared loads (StoreLoad).  Classic: a seq_cst head
      // store.  Asymmetric: release store + compiler barrier; seal_batch()
      // compensates with one heavy barrier before reading the slots
      // (DESIGN.md §5, activation case).  The era store above is release-
      // ordered before the head store either way, so a retirer that sees
      // the slot active also sees an era at least as new as era_local_.
      const asymfence::Path fences = dom_->fence_path_;
#ifndef NDEBUG
      // Debug check that the previous operation deactivated the slot.  An
      // exchange (a full RMW even at relaxed strength) reads the
      // coherence-latest value, so the check cannot misfire on a stale
      // load under the relaxed activation discipline; the store below then
      // publishes kActiveEmpty exactly as in release builds.  (A relaxed
      // load would in fact also be sound — while the slot is inactive no
      // other thread writes it, and a thread always observes its own last
      // store — but the exchange makes that reasoning unnecessary.)
      const std::uintptr_t prev =
          slot_.head.exchange(kInactive, std::memory_order_relaxed);
      assert(prev == kInactive &&
             "begin_op on a slot the previous operation left active");
#endif
      if (fences == asymfence::Path::kClassic) {
        slot_.head.store(kActiveEmpty, std::memory_order_seq_cst);
      } else {
        slot_.head.store(kActiveEmpty, std::memory_order_release);
        asymfence::light_barrier(fences);
      }
    }

    void end_op() noexcept {
      const std::uintptr_t prev =
          slot_.head.exchange(kInactive, std::memory_order_acq_rel);
      drain(prev);
    }

    // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
    template <class Src, class P = typename Src::value_type>
    P protect(const Src& src, unsigned /*idx*/) noexcept {
      P v = src.load(std::memory_order_acquire);
      ReclaimNode* n = smr_raw(v);
      if (n != nullptr && birth_era_of(n) > era_local_) {
        // The node is younger than our reservation: its batch may skip our
        // slot, so dereferencing it would be unsafe.  Refresh the
        // reservation and make the data structure restart from an anchor.
        end_op();
        begin_op();
        restart_ = true;
      }
      return v;
    }

    template <class T>
    void publish(T* /*p*/, unsigned /*idx*/) noexcept {}
    void dup(unsigned /*i*/, unsigned /*j*/) noexcept {}

    bool op_valid() const noexcept { return !restart_; }
    void revalidate_op() noexcept { restart_ = false; }

    void retire(ReclaimNode* n) {
      n->debug_state = kNodeRetired;
      n->retire_era = dom_->clock_.load(std::memory_order_acquire);
      n->batch = nullptr;
      push_to_batch(n);
      if (!dom_->bg_.is_active() && adopt_all_mailboxes() > 0) {
        obs::count(stats_, obs::Counter::kOrphanAdoptions);
        obs::trace_instant(obs::TraceKind::kAdopt);
      }
      dom_->counters_.on_retire(dom_->cfg_.track_stats);
      obs::count(stats_, obs::Counter::kRetires);
      obs::peak(stats_, limbo_.count);
      era_tick();
      if (limbo_.count >= required_batch()) {
        if (dom_->bg_.is_active()) {
          // Donate the accumulated batch whole; the service thread splices
          // it into its own batch and runs the seal (with its single heavy
          // barrier) off the operation path.
          donate_limbo(limbo_, dom_->bg_.mailbox);
          dom_->bg_.thread.ring();
        } else {
          seal_batch();
        }
      }
    }

    std::uint64_t on_alloc_era() noexcept {
      era_tick();
      return dom_->clock_.load(std::memory_order_acquire);
    }

    // Test hooks.
    unsigned pending_batch_size() const noexcept { return limbo_.count; }
    std::uint64_t reservation_era() const noexcept { return era_local_; }

    // --- background-reclaimer hooks (service thread only; DESIGN.md §9) ---
    unsigned bg_collect() { return adopt_all_mailboxes(); }
    // Seals only when the spliced batch has enough member nodes for every
    // registry record; a short batch keeps accumulating until the next
    // round's adoptions top it up.
    bool bg_reclaim() {
      if (limbo_.count == 0 || limbo_.count < required_batch()) return false;
      seal_batch();
      return true;
    }

    // Leave contract: no operation in flight (the slot is inactive and
    // drained).
    void prepare_leave() const noexcept {
      assert(slot_.head.load(std::memory_order_relaxed) == kInactive &&
             "leave() with an operation in flight");
    }

   private:
    friend class HyalineDomain;

    void push_to_batch(ReclaimNode* n) noexcept {
      const std::uint64_t birth = birth_era_of(n);
      if (limbo_.count == 0 || birth < batch_min_birth_)
        batch_min_birth_ = birth;
      limbo_.push(n);
    }

    // Splices every donated retire (departed threads' unsealed batches and
    // anything parked in the background mailbox) into this thread's batch,
    // restoring the min-birth bound.  Returns the number of nodes adopted
    // (0 = both mailboxes were raced empty).
    unsigned adopt_all_mailboxes() noexcept {
      unsigned adopted = 0;
      adopted += splice_mailbox(dom_->orphans_);
      adopted += splice_mailbox(dom_->bg_.mailbox);
      return adopted;
    }

    unsigned splice_mailbox(RetireMailbox& mailbox) noexcept {
      if (mailbox.empty()) return 0;
      ReclaimNode* n = mailbox.take_all();
      unsigned adopted = 0;
      while (n != nullptr) {
        ReclaimNode* next = n->smr_next;
        push_to_batch(n);
        ++adopted;
        n = next;
      }
      return adopted;
    }

    // A batch needs one member node per live registry record (each
    // insertion consumes a distinct node as the list entry) plus one, so
    // the threshold adapts to membership: total_records() is incremented
    // before a record is published, so this bound can only over-estimate,
    // never under-estimate, the chain seal_batch() will walk.  The floor is
    // the effective background threshold (initialized to batch_capacity_
    // and retuned by the adaptive controller; the registry term keeps it
    // correct regardless of how far the controller lowers it).
    unsigned required_batch() const noexcept {
      const auto total =
          static_cast<unsigned>(dom_->registry_.total_records());
      return std::max(dom_->bg_.effective_scan_threshold(), total + 1);
    }

    // Hands the accumulated batch to all active, era-overlapping slots.
    // The batch seal is Hyaline's reclaim cadence, so it carries the kScans
    // counter and the scan-latency histogram (nodes are counted as
    // reclaimed later, in free_batch, when the last reference drops).
    void seal_batch() {
      obs::TraceSpan span(obs::TraceKind::kSeal);
      const std::uint64_t stats_t0 = obs::scan_begin(stats_);
      // Surface in-flight activations before reading the slots: every node
      // in this batch was unlinked before it was retired, so an activation
      // the barrier does not surface belongs to a thread whose shared
      // loads are all ordered after those unlinks — it cannot reach any
      // node of this batch, and skipping its slot is safe (DESIGN.md §5).
      if (dom_->fence_path_ != asymfence::Path::kClassic) {
        asymfence::heavy_barrier(dom_->fence_path_);
        obs::count(stats_, obs::Counter::kHeavyBarriers);
      }
      // Snapshot the registry AFTER the barrier.  Records pushed after
      // this read are skippable by the same argument as an un-surfaced
      // activation; records in the snapshot cover every thread that could
      // hold a reference into this batch (DESIGN.md §7).
      auto* snap = dom_->registry_.head();
      unsigned len = 0;
      for (auto* r = snap; r != nullptr; r = r->next_record()) ++len;
      if (limbo_.count < len + 1) {
        // The registry grew between the threshold check and the snapshot:
        // not enough member nodes to give every slot a distinct entry.
        // Keep accumulating; the next retire re-checks against the larger
        // required_batch().
        obs::scan_end(stats_, stats_t0, 0);
        return;
      }
      auto* bh = new BatchHandle;
      bh->refs.store(kGuard, std::memory_order_relaxed);
      bh->count = limbo_.count;
      bh->first = limbo_.take();
      for (ReclaimNode* n = bh->first; n != nullptr; n = n->smr_next)
        n->batch = bh;

      std::int64_t inserted = 0;
      ReclaimNode* entry = bh->first;
      for (auto* r = snap; r != nullptr && entry != nullptr;
           r = r->next_record()) {
        auto& slot = r->handle.slot_;
        std::uintptr_t h = slot.head.load(std::memory_order_acquire);
        for (;;) {
          if (h == kInactive) break;
          if (slot.era.load(std::memory_order_acquire) < batch_min_birth_) {
            // 1S filter: the slot's thread entered before any node in this
            // batch was born; it would have restarted rather than hold a
            // reference into the batch.
            break;
          }
          entry->slot_next = reinterpret_cast<ReclaimNode*>(h);
          if (slot.head.compare_exchange_weak(
                  h, reinterpret_cast<std::uintptr_t>(entry),
                  std::memory_order_acq_rel, std::memory_order_acquire)) {
            ++inserted;
            entry = entry->smr_next;  // consume one member node per slot
            break;
          }
        }
      }
      obs::scan_end(stats_, stats_t0, 0);
      adjust(bh, inserted - kGuard);
    }

    void drain(std::uintptr_t list) noexcept {
      auto* e = reinterpret_cast<ReclaimNode*>(list);
      assert(list != kInactive);
      while (e != nullptr) {
        ReclaimNode* next = e->slot_next;  // read before the batch can die
        adjust(static_cast<BatchHandle*>(e->batch), -1);
        e = next;
      }
    }

    void adjust(BatchHandle* bh, std::int64_t delta) noexcept {
      if (bh->refs.fetch_add(delta, std::memory_order_acq_rel) + delta == 0)
        free_batch(bh);
    }

    void free_batch(BatchHandle* bh) noexcept {
      std::uint64_t freed = 0;
      ReclaimNode* n = bh->first;
      while (n != nullptr) {
        ReclaimNode* next = n->smr_next;
        dom_->pool().free(tid_, n, n->alloc_size);
        ++freed;
        n = next;
      }
      assert(freed == bh->count);
      dom_->counters_.on_free(freed, dom_->cfg_.track_stats);
      // Charged to the handle that dropped the last reference ("reclamation
      // by any thread"), which is always the calling thread — single-writer.
      obs::count(stats_, obs::Counter::kNodesReclaimed, freed);
      delete bh;
    }

    struct SlotData {
      std::atomic<std::uintptr_t> head{kInactive};
      std::atomic<std::uint64_t> era{0};
    };

    // Reservation slot (the record's alignment isolates it from other
    // threads' lines).
    SlotData slot_;
    std::uint64_t era_local_ = 0;
    bool restart_ = false;
    // Lower bound of the birth eras in the unsealed batch (limbo_).
    std::uint64_t batch_min_birth_ = 0;
  };

  explicit HyalineDomain(SmrConfig cfg = {})
      : DomainCore(cfg),
        batch_capacity_(cfg.batch_capacity != 0 ? cfg.batch_capacity
                                                : cfg.max_threads + 1) {
    // Hyaline's reclaim cadence is the batch size, so that is what the
    // adaptive controller tunes (era_freq rides along for the clock rate).
    bg_.scan_threshold.store(batch_capacity_, std::memory_order_relaxed);
    start_configured();
  }
  ~HyalineDomain() { shutdown(); }

  std::uint64_t era() const noexcept {
    return clock_.load(std::memory_order_acquire);
  }
  // The configured batch-size floor; the effective threshold also adapts
  // upward to the live registry size (see Handle::required_batch).
  unsigned batch_capacity() const noexcept { return batch_capacity_; }

 private:
  static constexpr std::uintptr_t kActiveEmpty = 0;
  static constexpr std::uintptr_t kInactive = 1;
  static constexpr std::int64_t kGuard = std::int64_t{1} << 62;

  const unsigned batch_capacity_;
};

}  // namespace scot
