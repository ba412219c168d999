// Dynamic handle membership for reclamation domains: threads join and
// leave a domain at any point in its lifetime, with no fixed thread cap.
//
//  * `HandleRegistry<Domain>` — a lock-free singly-linked list of permanent
//    handle *records*, each holding one `Domain::Handle`.  `acquire()`
//    claims a free record (or appends a new one); `release()` returns it
//    for reuse.  Records are never unlinked or freed while the registry
//    lives, so scanners may traverse the list with plain acquire loads and
//    no deferred reclamation of the records themselves (the same trick
//    libreclaim's ctx_list uses).
//
//  * Generation-tagged occupancy.  Each record carries one state word
//    `(generation << 1) | active`: even = free, odd = claimed.  A claim is a
//    CAS from a *specific* even value to its odd successor, so a thread
//    acting on a stale observation of "free" loses the CAS instead of
//    double-claiming a record whose ownership has since changed hands — the
//    ABA that a plain active bit would admit (DESIGN.md §7).
//
//  * A thread-local cached-record fast path: a thread that re-joins the same
//    registry it last left re-claims its old record with a single CAS — no
//    list walk — which keeps `scoped_handle()` cheap enough for
//    short-lived pool workers.  The cache is keyed by a globally unique
//    registry id so it can never alias a record of a dead (or different)
//    registry.
//
//  * `ScopedHandle` / `scoped_handle(domain)` — the RAII join/leave
//    spelling.
//
//  * `OrphanList` — the domain-side mailbox a departing thread donates its
//    unreclaimed retires to; any later retirer adopts them (Hyaline-style
//    handoff generalized to every scheme).
//
// Memory-ordering contract (the late-joiner argument, DESIGN.md §7):
// `append` publishes a new record with a seq_cst CAS on the list head, and
// every reclamation scan reads the head with a seq_cst load *after* its
// heavy barrier (asymmetric path) or as part of its seq_cst scan sequence
// (classic path).  A record the walk does not see therefore belongs to a
// thread whose first reservation publication is not yet visible to the scan
// either — exactly the case the per-scheme fence argument (DESIGN.md §5)
// already proves safe.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

#include "common/align.hpp"
#include "smr/reclaim_node.hpp"

namespace scot {

namespace detail {
// Globally unique, never reused: a stale thread-local cache entry keyed by a
// dead registry's id can never match a live registry.
inline std::uint64_t next_registry_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

// Parameterized on the domain rather than its Handle so a domain's base
// (DomainCore<Domain>) can hold the registry while Domain — and the Handle
// nested in it — is still incomplete: nothing at class scope names
// Domain::Handle, only Record's lazily instantiated definition does.
template <class Domain>
class HandleRegistry {
 public:
  // A permanent membership record.  `handle` is constructed exactly once
  // (when the record is appended) and reused across claim/release cycles;
  // schemes guarantee their handles are left in a reusable state by
  // `leave()` (reservations idle, limbo donated).
  struct alignas(kFalseSharingRange) Record {
    template <class Make>
    Record(unsigned idx, Make&& make)
        : state(1),  // born claimed (generation 0, active)
          index(idx),
          handle(make(idx)) {}

    Record* next_record() const noexcept {
      return next.load(std::memory_order_acquire);
    }
    bool active() const noexcept {
      return (state.load(std::memory_order_acquire) & 1) != 0;
    }
    std::uint64_t generation() const noexcept {
      return state.load(std::memory_order_acquire) >> 1;
    }

    std::atomic<std::uint64_t> state;
    std::atomic<Record*> next{nullptr};
    const unsigned index;
    typename Domain::Handle handle;
  };

  HandleRegistry() = default;
  HandleRegistry(const HandleRegistry&) = delete;
  HandleRegistry& operator=(const HandleRegistry&) = delete;

  ~HandleRegistry() {
    Record* r = head_.load(std::memory_order_acquire);
    while (r != nullptr) {
      Record* next = r->next.load(std::memory_order_acquire);
      delete r;
      r = next;
    }
  }

  // Claims a record: thread-local cache hit, else scavenge the list for a
  // free record, else append a fresh one.  `make(index)` constructs the
  // Handle for a fresh record (must return a prvalue Handle).
  // Lock-free; the returned record is exclusively owned until release().
  template <class Make>
  Record* acquire(Make&& make) {
    TlsCache& tls = tls_cache();
    if (tls.registry_id == id_) {
      auto* r = static_cast<Record*>(tls.record);
      if (try_claim(*r)) return r;
    }
    for (Record* r = head_.load(std::memory_order_acquire); r != nullptr;
         r = r->next.load(std::memory_order_acquire)) {
      if (try_claim(*r)) {
        tls = {id_, r};
        return r;
      }
    }
    return append(std::forward<Make>(make));
  }

  // Returns a claimed record for reuse.  The release store bumps the
  // generation (odd -> next even), so any claim attempt based on the old
  // generation fails.
  void release(Record* r) noexcept {
    const std::uint64_t s = r->state.load(std::memory_order_relaxed);
    assert((s & 1) != 0 && "release of a record that is not claimed");
    tls_cache() = {id_, r};
    active_.fetch_sub(1, std::memory_order_relaxed);
    r->state.store(s + 1, std::memory_order_release);
  }

  // Scan-side entry point.  seq_cst by design: paired with the seq_cst
  // append CAS this guarantees a scan running under classic fences sees the
  // record of any thread whose reservation publications it can see (the
  // late-joiner argument above).  On the asymmetric path, call this AFTER
  // the heavy barrier.
  Record* head() const noexcept {
    return head_.load(std::memory_order_seq_cst);
  }

  // High-water record count.  Incremented BEFORE the list push, so a reader
  // that loads head() first and total_records() second always observes
  // count >= chain length (Hyaline's batch sizing relies on this).
  std::size_t total_records() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  // Currently claimed records (gauge; exact only in quiescence).
  unsigned active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }

 private:
  struct TlsCache {
    std::uint64_t registry_id = 0;
    void* record = nullptr;
  };
  static TlsCache& tls_cache() noexcept {
    static thread_local TlsCache cache;
    return cache;
  }

  bool try_claim(Record& r) noexcept {
    std::uint64_t s = r.state.load(std::memory_order_relaxed);
    if ((s & 1) != 0) return false;
    if (!r.state.compare_exchange_strong(s, s + 1, std::memory_order_acquire,
                                         std::memory_order_relaxed))
      return false;
    active_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  template <class Make>
  Record* append(Make&& make) {
    const unsigned idx =
        static_cast<unsigned>(count_.fetch_add(1, std::memory_order_acq_rel));
    auto* r = new Record(idx, std::forward<Make>(make));
    active_.fetch_add(1, std::memory_order_relaxed);
    Record* h = head_.load(std::memory_order_relaxed);
    do {
      r->next.store(h, std::memory_order_relaxed);
    } while (!head_.compare_exchange_weak(h, r, std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
    tls_cache() = {id_, r};
    return r;
  }

  const std::uint64_t id_ = detail::next_registry_id();
  std::atomic<Record*> head_{nullptr};
  std::atomic<std::size_t> count_{0};
  std::atomic<unsigned> active_{0};
};

// RAII membership: joins on construction, leaves on destruction.  This is
// the intended per-thread spelling:
//
//   auto h = scot::scoped_handle(domain);
//   h->begin_op(); ... h->retire(n); ... h->end_op();
//
// The handle must not be used after the ScopedHandle is destroyed, and no
// operation may be in flight at destruction time.
template <class Domain>
class ScopedHandle {
 public:
  using Handle = typename Domain::Handle;

  explicit ScopedHandle(Domain& d) : dom_(&d), h_(&d.join()) {}
  ~ScopedHandle() { reset(); }

  ScopedHandle(ScopedHandle&& o) noexcept : dom_(o.dom_), h_(o.h_) {
    o.h_ = nullptr;
  }
  ScopedHandle& operator=(ScopedHandle&& o) noexcept {
    if (this != &o) {
      reset();
      dom_ = o.dom_;
      h_ = o.h_;
      o.h_ = nullptr;
    }
    return *this;
  }
  ScopedHandle(const ScopedHandle&) = delete;
  ScopedHandle& operator=(const ScopedHandle&) = delete;

  Handle& operator*() const noexcept { return *h_; }
  Handle* operator->() const noexcept { return h_; }
  Handle& get() const noexcept { return *h_; }

  // Leaves early (idempotent).
  void reset() noexcept {
    if (h_ != nullptr) {
      dom_->leave(*h_);
      h_ = nullptr;
    }
  }

 private:
  Domain* dom_;
  Handle* h_;
};

template <class Domain>
[[nodiscard]] ScopedHandle<Domain> scoped_handle(Domain& d) {
  return ScopedHandle<Domain>(d);
}

// MPSC mailbox of retired-node chains, the handoff primitive for both
// custody transfers in the library:
//
//  * orphan custody — leave() donates the departing thread's leftover chain;
//    the next retire() on any live handle adopts the lot;
//  * background reclamation (smr/reclaimer.hpp, DESIGN.md §9) — mutators
//    donate their full limbo/batch chains so the domain's service thread
//    reclaims them off the operation path.
//
// donate() is one CAS push of a whole chain (linked through smr_next);
// take_all() transfers everything to exactly one consumer.  The release/
// acquire pair carries the node contents: a consumer that observes a chain
// observes every write the donor made to its nodes before donating.  Nodes
// parked here are still accounted in the domain's pending gauge — donation
// moves custody, not statistics.
class RetireMailbox {
 public:
  RetireMailbox() = default;
  RetireMailbox(const RetireMailbox&) = delete;
  RetireMailbox& operator=(const RetireMailbox&) = delete;

  bool empty() const noexcept {
    return head_.load(std::memory_order_relaxed) == nullptr;
  }

  // Donates the chain [first .. last] (linked via smr_next, last's next
  // ignored).  Lock-free.
  void donate(ReclaimNode* first, ReclaimNode* last) noexcept {
    assert(first != nullptr && last != nullptr);
    ReclaimNode* h = head_.load(std::memory_order_relaxed);
    do {
      last->smr_next = h;
    } while (!head_.compare_exchange_weak(h, first, std::memory_order_release,
                                          std::memory_order_relaxed));
    donations_.fetch_add(1, std::memory_order_relaxed);
  }

  // Adopts everything donated so far; returns the chain head (nullptr if
  // none).  The caller owns the chain exclusively.
  ReclaimNode* take_all() noexcept {
    return head_.exchange(nullptr, std::memory_order_acquire);
  }

  // Cumulative donate() count (telemetry: the reclaimer's batches-adopted
  // stat; approximate while donors run).
  std::uint64_t donations() const noexcept {
    return donations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<ReclaimNode*> head_{nullptr};
  std::atomic<std::uint64_t> donations_{0};
};

// Historical name: the orphan mailbox was the first RetireMailbox use; the
// background reclaimer generalized it.
using OrphanList = RetireMailbox;

}  // namespace scot
