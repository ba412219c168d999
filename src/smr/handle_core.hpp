// CRTP bases shared by the per-thread handles of all reclamation schemes.
//
// A Handle is the per-thread facade of a reclamation domain: all allocation,
// protection and retirement flows through it.  Handles are *not*
// thread-safe: a handle is owned by the thread that claimed it with join()
// (or scoped_handle) until that thread's matching leave(), and only the
// owner may call into it in between.  The registry record behind it may be
// claimed by another thread after the leave.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/asymfence.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/guard.hpp"
#include "smr/handle_registry.hpp"
#include "smr/node_pool.hpp"
#include "smr/reclaim_node.hpp"

namespace scot {

template <class Derived>
class DomainCore;

// Intrusive singly-linked list of retired nodes awaiting reclamation.  The
// tail pointer (the oldest node — push prepends) makes whole-chain donation
// to the retire mailbox O(1), which the background-reclaim hot path relies
// on: with the reclaimer on every threshold-ful of retires donates the full
// chain instead of scanning (smr/reclaimer.hpp, DESIGN.md §9).
//
// `recent` indexes the last kRecent pushes by position (count mod kRecent),
// so a scan can prefetch them all before it walks the chain.  Retired nodes
// are cold by the time a scan reaches them, and the walk's loads are
// dependent: without the prefetch a scan pays one serial cache miss per
// node, which puts a latency step on every retire that scans.
struct LimboList {
  static constexpr unsigned kRecent = 128;

  ReclaimNode* head = nullptr;
  ReclaimNode* tail = nullptr;
  unsigned count = 0;
  ReclaimNode* recent[kRecent];  // slots [0, min(count, kRecent)) are valid

  void push(ReclaimNode* n) noexcept {
    recent[count % kRecent] = n;
    n->smr_next = head;
    if (head == nullptr) tail = n;
    head = n;
    ++count;
  }

  // Issued at the start of a scan, ahead of its barrier and reservation
  // snapshot, so the misses overlap them.
  void prefetch() const noexcept {
    const unsigned k = std::min(count, kRecent);
    for (unsigned i = 0; i < k; ++i) __builtin_prefetch(recent[i]);
  }

  ReclaimNode* take() noexcept {
    ReclaimNode* h = head;
    head = nullptr;
    tail = nullptr;
    count = 0;
    return h;
  }
};

// Donates a limbo list's whole chain to the domain's retire mailbox — on
// leave(), or on the background reclaimer's donate-instead-of-scan hot
// path — and resets the list.  O(1): one CAS push of the [head .. tail]
// chain.  Returns the number of nodes donated (0 = no donation happened).
inline unsigned donate_limbo(LimboList& limbo,
                             RetireMailbox& mailbox) noexcept {
  const unsigned donated = limbo.count;
  if (donated == 0) return 0;
  mailbox.donate(limbo.head, limbo.tail);
  limbo.take();
  return donated;
}

// Takes every chain parked in `mailbox` and hands its nodes one at a time
// to `push` (the adopter's limbo list, or Hyaline's batch).  Returns the
// number of nodes adopted (0 = the mailbox was empty or raced empty).
template <class Push>
unsigned adopt_mailbox(RetireMailbox& mailbox, Push&& push) noexcept {
  if (mailbox.empty()) return 0;
  ReclaimNode* n = mailbox.take_all();
  unsigned adopted = 0;
  while (n != nullptr) {
    ReclaimNode* next = n->smr_next;
    push(n);
    ++adopted;
    n = next;
  }
  return adopted;
}

// Base of every scheme handle.  Domain is the scheme's DomainCore-derived
// domain; Derived may shadow the skeleton hooks below and
// `std::uint64_t on_alloc_era()` (the birth era to stamp; 0 by default).
template <class Domain, class Derived>
class HandleCore {
 public:
  HandleCore(Domain* dom, unsigned tid)
      : stats_(dom->obs_stats().make_cell(dom->config().track_stats)),
        dom_(dom),
        tid_(tid),
        track_(dom->config().track_stats) {}

  HandleCore(const HandleCore&) = delete;
  HandleCore& operator=(const HandleCore&) = delete;

  // The registry record index: names this handle's pool shard and its
  // wait-free help slot.  Stable across claim/release reuse of the record.
  unsigned tid() const noexcept { return tid_; }
  Domain& domain() noexcept { return *dom_; }

  // Allocates and constructs a node.  T must derive from ReclaimNode and be
  // trivially destructible: reclamation is type-erased and never runs
  // destructors (all pooled node types in this library are PODs plus
  // atomics).
  template <class T, class... Args>
  T* alloc(Args&&... args) {
    return alloc_extra<T>(0, std::forward<Args>(args)...);
  }

  // alloc() with `extra` trailing bytes for inline variable-length payloads
  // (string keys, value blobs).  The payload lives inside the pooled cell
  // right after T, so it is freed with the node and needs no destructor —
  // which keeps the trivially-destructible contract intact.  The caller
  // copies the bytes in after construction; the publishing CAS (release on
  // every scheme's traversal protocol) orders those writes before any
  // reader can reach the node.
  template <class T, class... Args>
  T* alloc_extra(std::size_t extra, Args&&... args) {
    static_assert(std::is_base_of_v<ReclaimNode, T>);
    static_assert(std::is_trivially_destructible_v<T>,
                  "pooled nodes must be trivially destructible");
    const std::size_t bytes = sizeof(T) + extra;
    assert(bytes <= NodePool::max_node_bytes());
    void* mem = dom_->pool().alloc(tid_, bytes);
    // Stamp the birth era before the node can become reachable.  The header
    // is outside the object, so placement-new below does not disturb it.
    header_of(mem)->birth_era.store(derived()->on_alloc_era(),
                                    std::memory_order_release);
    T* n = new (mem) T(std::forward<Args>(args)...);
    n->alloc_size = static_cast<std::uint32_t>(bytes);
    n->debug_state = kNodeLive;
    return n;
  }

  // Frees a node that was never published into a shared structure (e.g. the
  // loser of an insertion CAS).  Bypasses retirement entirely.
  template <class T>
  void dealloc_unpublished(T* n) {
    assert(n->debug_state == kNodeLive);
    dom_->pool().free(tid_, n, n->alloc_size);
  }

  // Typed retirement: accepts the protected view a traversal already holds.
  // The scheme's retire(ReclaimNode*) stays the implementation; handles
  // re-expose this overload with `using ...::retire;`.
  template <class T>
  void retire(Protected<T> p) {
    static_assert(std::is_base_of_v<ReclaimNode, T>);
    assert(p.get() != nullptr && "cannot retire an empty Protected");
    derived()->retire(static_cast<ReclaimNode*>(p.get()));
  }

  std::uint64_t on_alloc_era() noexcept { return 0; }

  // --- skeleton hooks, called by DomainCore::leave -------------------------
  // prepare_leave(): the scheme's pre-step (assert the reservation is idle,
  // or clear the protection slots).  reclaim_on_leave(): the final inline
  // reclamation attempt before the leftover limbo is orphaned.
  void prepare_leave() noexcept {}
  void reclaim_on_leave() noexcept {}

  // --- data-structure statistics (Table 2 of the paper) -------------------
  // Bumped by the data structures through count_restart()/count_recovery()
  // and summed by DomainCore::restarts()/recoveries() while workers may
  // still run: single-writer relaxed atomics, bumped with a load+store pair
  // like the obs:: counters (no lock prefix).  Deliberately NOT reset on
  // record reuse: they are cumulative domain telemetry.
  std::atomic<std::uint64_t> ds_restarts{0};    // full traversal restarts
  std::atomic<std::uint64_t> ds_recoveries{0};  // §3.2.1 recovery escapes

  void count_restart() noexcept { bump(ds_restarts); }
  void count_recovery() noexcept { bump(ds_recoveries); }

  // Back-pointer to this handle's HandleRegistry record, set by
  // DomainCore::join() and cast back in leave().
  void* registry_record_ = nullptr;

  // Observability cell: one padded counter block per registry record,
  // cumulative across claim/release reuse like the ds_* fields above.
  // nullptr when stats are compiled out (SCOT_STATS=0) or the domain was
  // built with track_stats=false — every obs:: helper no-ops on null.
  obs::StatsCell* stats_ = nullptr;

 protected:
  template <class>
  friend class DomainCore;

  Derived* derived() noexcept { return static_cast<Derived*>(this); }

  static void bump(std::atomic<std::uint64_t>& a) noexcept {
    a.store(a.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // The retire/free books behind pending_nodes() and the stats() totals.
  // A free is published with a release store so that a reader summing the
  // frees first (acquire) then the retires never counts a free whose
  // retire it missed: the gauge can lag, but never reads negative.
  void count_retire() noexcept {
    if (track_) bump(retired_);
  }
  void count_reclaimed(std::uint64_t n) noexcept {
    if (track_)
      reclaimed_.store(reclaimed_.load(std::memory_order_relaxed) + n,
                       std::memory_order_release);
  }

  // --- barrier sharing (DESIGN.md §5, "Sharing one barrier") -------------
  // Inline retires on the membarrier path take part; with the background
  // reclaimer on, its one barrier per round already serves every mutator,
  // and a fallback barrier is a local fence no other thread can reuse.
  bool shares_barriers() const noexcept {
    return !dom_->bg_.active &&
           dom_->fence_path_ == asymfence::Path::kMembarrier;
  }
  // True when a heavy barrier that started after this handle's previous
  // retire has completed, on any thread and in any domain: every node
  // parked by then was unlinked before that barrier started.
  bool barrier_covered() const noexcept {
    return asymfence::barrier_completed_since(last_gen_);
  }
  // The last step of an inline retire, after its unlink, push and mailbox
  // adoption.
  void note_barrier_generation() noexcept {
    last_gen_ = asymfence::barrier_generation();
  }
  // A scan's or seal's heavy barrier before its first read of the published
  // reservations, skipped when a shared barrier already covers the batch.
  void reclaim_barrier(bool covered) noexcept {
    if (covered || dom_->fence_path_ == asymfence::Path::kClassic) return;
    asymfence::heavy_barrier(dom_->fence_path_);
    obs::count(stats_, obs::Counter::kHeavyBarriers);
  }

  // Advances the domain's era/epoch clock once per era_freq calls (the
  // era-based schemes call it on retire and, for birth eras, alloc).
  void era_tick() noexcept {
    if (++tick_ >= dom_->cfg_.era_freq) {
      tick_ = 0;
      dom_->clock_.fetch_add(1, std::memory_order_acq_rel);
      obs::count(stats_, obs::Counter::kEraAdvances);
    }
  }

  Domain* dom_;
  unsigned tid_;
  unsigned tick_ = 0;
  // Retired nodes this handle still owns: the limbo list of EBR/HP/HE/IBR,
  // Hyaline's unsealed batch.  DomainCore hands it off on leave() and frees
  // it at domain teardown.
  LimboList limbo_;
  // Nodes this handle retired / freed (scans, Hyaline batch frees), summed
  // over the registry by DomainCore::counters().  Single-writer, bumped
  // only when the domain tracks stats (SCOT_STATS does not gate them), and
  // cumulative across record reuse like the ds_* fields.
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  // The barrier generation read at the end of the previous inline retire
  // (note_barrier_generation); kept across record reuse, which is safe
  // because leave() empties the limbo.
  std::uint64_t last_gen_ = 0;
  bool track_;
};

// The limbo-list schemes (EBR, HP, HE, IBR): retire parks the node in the
// private limbo list, and a full list is either scanned inline — Derived
// supplies `void scan()` — or donated whole to the background reclaimer.
// kRetireEra: stamp each retired node with the clock and tick it (every
// scheme here but HP).
template <class Domain, class Derived, bool kRetireEra>
class LimboHandle : public HandleCore<Domain, Derived> {
  using Core = HandleCore<Domain, Derived>;

 public:
  using Core::Core;
  using Core::retire;

  void retire(ReclaimNode* n) {
    Domain* dom = this->dom_;
    n->debug_state = kNodeRetired;
    if constexpr (kRetireEra)
      n->retire_era = dom->clock_.load(std::memory_order_acquire);
    // Another thread's completed barrier covers everything parked before
    // this retire: scan it now, without a barrier of our own.  No minimum
    // count — waiting for more nodes would only keep garbage longer.
    const bool share = this->shares_barriers();
    if (share && this->limbo_.count > 0 && this->barrier_covered())
      this->derived()->scan(/*covered=*/true);
    this->limbo_.push(n);
    // With the background reclaimer on, mailbox adoption is its job;
    // otherwise retirers adopt what departed threads left behind.
    if (!dom->bg_.active && adopt() > 0) {
      obs::count(this->stats_, obs::Counter::kOrphanAdoptions);
      obs::trace_instant(obs::TraceKind::kAdopt);
    }
    this->count_retire();
    obs::peak(this->stats_, this->limbo_.count);
    if constexpr (kRetireEra) this->era_tick();
    if (this->limbo_.count >= dom->cfg_.scan_threshold) {
      if (dom->bg_.active) {
        // Donate the whole chain (one CAS) and ring the doorbell: no scan,
        // no reservation snapshot, and on the asymmetric path no heavy
        // barrier on this (or any) mutator — the service thread issues one
        // barrier for the entire adopted backlog.
        donate_limbo(this->limbo_, dom->mailbox_);
        dom->bg_.thread.ring();
      } else {
        this->derived()->scan();
      }
    }
    if (share) this->note_barrier_generation();
  }

  // Test hook: number of nodes parked in this thread's limbo list.
  unsigned limbo_size() const noexcept { return this->limbo_.count; }

  void reclaim_on_leave() { this->derived()->scan(); }

  // --- background-reclaimer hooks (service thread only; DESIGN.md §9) -----
  // Adopt every donated chain into this handle's limbo list.
  unsigned bg_collect() { return adopt(); }
  // Run the shared scan (one heavy barrier) if there is a backlog.
  bool bg_reclaim() {
    if (this->limbo_.count == 0) return false;
    this->derived()->scan();
    return true;
  }

 private:
  unsigned adopt() {
    return adopt_mailbox(this->dom_->mailbox_,
                         [this](ReclaimNode* n) { this->limbo_.push(n); });
  }
};

}  // namespace scot
