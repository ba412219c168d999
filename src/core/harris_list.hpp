// Harris' lock-free linked list (Harris, DISC 2001) with **SCOT** — Safe
// Concurrent Optimistic Traversals (the paper's core contribution, §3.2).
//
// Harris' list lets traversals walk *through* chains of logically deleted
// nodes and remove a whole chain with one CAS.  That optimistic traversal is
// incompatible with HP/HE/IBR/Hyaline-1S: a traverser standing inside a
// marked chain follows frozen next-pointers whose targets may already be
// retired and reclaimed (Figure 2 of the paper).  SCOT's fix:
//
//   * Hp2 protects the *last safe* (unmarked) node, Hp3 protects the *first
//     unsafe* (marked) node of the chain ("dangerous zone").
//   * After protecting each next node inside the zone, the traverser
//     validates that the last safe node still points at the first unsafe
//     node.  Chains are only ever unlinked whole-prefix via the last safe
//     node's link (the mark bit lives in the predecessor's next field), so
//     a successful validation proves the chain was still linked — hence not
//     yet retired — when the protection was published.
//   * On validation failure the operation restarts, or, with the §3.2.1
//     *recovery optimization*, hops to the last safe node's new successor
//     when that node is itself still unmarked.
//
// Traits select the paper's variants:
//   kUnrolled  — Figure 5 right (2 dups in the safe zone, 1 in the zone)
//                vs. Figure 5 left (3 dups everywhere);
//   kRecovery  — §3.2.1 recovery optimization;
//   kWaitFree  — §3.4 wait-free Search via the helping protocol.
//
// Protection roles (guard slots, allocated in ascending order so the
// ascending-dup discipline of paper §3.2 holds by construction):
//   hp.next = next, hp.curr = curr, hp.prev = last safe, hp.unsafe = first
//   unsafe.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/align.hpp"
#include "core/list_common.hpp"
#include "core/marked_ptr.hpp"
#include "core/wait_free.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

struct HarrisListTraits {
  static constexpr bool kUnrolled = true;
  static constexpr bool kRecovery = true;
  static constexpr bool kWaitFree = false;
  static constexpr int kFastPathRestarts = 4;  // M, before Request_Help
};

struct HarrisListSimpleTraits : HarrisListTraits {
  static constexpr bool kUnrolled = false;
};

struct HarrisListNoRecoveryTraits : HarrisListTraits {
  static constexpr bool kRecovery = false;
};

struct HarrisListWaitFreeTraits : HarrisListTraits {
  static constexpr bool kWaitFree = true;
};

template <class Key, class Value, SmrDomain Smr,
          class Traits = HarrisListTraits, class Compare = std::less<Key>>
class HarrisList {
 public:
  using Node = ListNode<Key, Value>;
  using MP = marked_ptr<Node>;
  // Link words live in pool-recycled nodes, so they are StableAtomic (the
  // head is one too: traversal code points at head and node links alike).
  using Link = StableAtomic<MP>;
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;
  using NodeSlot = ProtectionSlot<Handle, Node>;

  static constexpr unsigned kSlotsRequired = 4;

  // The traversal's protection roles.  Construction order is the slot
  // index order, so every dup_from below copies toward a higher index
  // (paper §3.2; asserted by ProtectionSlot).
  struct Hp {
    NodeSlot next, curr, prev, unsafe;
    explicit Hp(Guard& g)
        : next(g.template slot<Node>()),
          curr(g.template slot<Node>()),
          prev(g.template slot<Node>()),
          unsafe(g.template slot<Node>()) {}
  };

  explicit HarrisList(Smr& smr, Compare cmp = {}) : smr_(smr), cmp_(cmp) {
    auto h = scoped_handle(smr_);
    Node* tail = h->template alloc<Node>(Key{}, Value{}, 1);
    head_.store(MP(tail), std::memory_order_release);
    if constexpr (Traits::kWaitFree) {
      wf_ = std::make_unique<WfHelpRegistry<Key>>(smr_.config().max_threads);
    }
  }

  ~HarrisList() {
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Node* n = head_.load(std::memory_order_relaxed).ptr();
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed).ptr();
      h.dealloc_unpublished(n);
      n = next;
    }
  }

  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  // Inserts `key`; returns false if already present.
  bool insert(Handle& h, const Key& key, const Value& value = {}) {
    Guard guard(h);
    Hp hp(guard);
    Node* n = h.template alloc<Node>(key, value, 0);
    for (;;) {
      if constexpr (Traits::kWaitFree) help_others(guard, hp);
      Position pos;
      do_find(guard, hp, key, /*search_only=*/false, pos, DefaultControl{});
      if (pos.found) {
        h.dealloc_unpublished(n);
        return false;
      }
      n->next.store(MP(pos.curr), std::memory_order_relaxed);
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, MP(n),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  // Removes `key`; returns false if absent.
  bool erase(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    for (;;) {
      if constexpr (Traits::kWaitFree) help_others(guard, hp);
      Position pos;
      do_find(guard, hp, key, /*search_only=*/false, pos, DefaultControl{});
      if (!pos.found) return false;
      MP next = pos.next;
      assert(!next.marked());
      // Logical deletion (Figure 3, L21): mark curr's own next field.
      if (!pos.curr->next.compare_exchange_strong(next, next.with_mark(),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_relaxed)) {
        continue;
      }
      // One optimistic unlink attempt (Figure 3, L22); failure leaves the
      // node for a later traversal's chain removal.
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, next.clean(),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        h.retire(pos.curr);
      }
      return true;
    }
  }

  // Membership test.  Lock-free by default; wait-free with
  // Traits::kWaitFree (fast path + helping slow path, §3.4).
  bool contains(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    if constexpr (Traits::kWaitFree) {
      Position pos;
      FindOutcome out = do_find(guard, hp, key, /*search_only=*/true, pos,
                                BoundedControl{Traits::kFastPathRestarts});
      if (out == FindOutcome::kOk) return pos.found;
      const std::uint64_t tag = wf_->request_help(h.tid(), key);
      return slow_search(guard, hp, key, tag, h.tid());
    } else {
      Position pos;
      do_find(guard, hp, key, /*search_only=*/true, pos, DefaultControl{});
      return pos.found;
    }
  }

  // Lookup with value copy (lock-free path only; values are immutable once
  // inserted).
  std::optional<Value> get(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    Position pos;
    do_find(guard, hp, key, /*search_only=*/true, pos, DefaultControl{});
    if (!pos.found) return std::nullopt;
    return pos.curr->value;  // protected by hp.curr
  }

  // Test-only: performs the logical deletion of `key` (marking the node's
  // next pointer) while deliberately skipping the physical unlink attempt.
  // This builds chains of logically deleted nodes deterministically, which
  // the dangerous-zone tests traverse and prune.  Not part of the public
  // set semantics.
  bool debug_mark_only(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    for (;;) {
      Position pos;
      do_find(guard, hp, key, /*search_only=*/true, pos, DefaultControl{});
      if (!pos.found) return false;
      MP next = pos.next;
      if (pos.curr->next.compare_exchange_strong(next, next.with_mark(),
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  // Test-only: access the wait-free help registry (requires
  // Traits::kWaitFree).
  WfHelpRegistry<Key>& debug_wf_registry() {
    static_assert(Traits::kWaitFree);
    return *wf_;
  }

  // Single-threaded observers for tests.
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    const Node* c = head_.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      if (c->rank == 0 && !c->next.load(std::memory_order_acquire).marked())
        ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

  // Number of nodes physically in the list (marked chains included).
  std::size_t physical_size_unsafe() const {
    std::size_t n = 0;
    const Node* c = head_.load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      if (c->rank == 0) ++n;
      c = c->next.load(std::memory_order_acquire).ptr();
    }
    return n;
  }

 private:
  struct Position {
    Link* prev;
    Node* curr;
    MP next;
    bool found;
  };

  enum class FindOutcome : std::uint8_t {
    kOk,            // position settled
    kAborted,       // fast-path budget exhausted
    kExternalTrue,  // slow path: another participant published "found"
    kExternalFalse  // slow path: another participant published "not found"
  };

  // --- traversal control policies ---------------------------------------
  struct DefaultControl {
    bool on_restart() const { return true; }
    WfPoll poll() const { return WfPoll::kContinue; }
  };
  struct BoundedControl {
    int budget;
    bool on_restart() { return --budget > 0; }
    WfPoll poll() const { return WfPoll::kContinue; }
  };
  struct HelpControl {
    WfHelpRegistry<Key>* reg;
    unsigned help_tid;
    std::uint64_t tag;
    bool on_restart() const { return true; }
    WfPoll poll() const { return reg->poll_status(help_tid, tag); }
  };

  // SCOT-augmented Do_Find (Figure 5).  Returns the settled position for the
  // caller, unlinking the marked chain adjacent to it when
  // `!search_only` (Figure 3, L43-44 semantics).
  template <class Control>
  FindOutcome do_find(Guard& g, Hp& hp, const Key& key, bool search_only,
                      Position& out, Control control) {
    Handle& h = g.handle();
    // All locals hoisted so that `goto restart` stays well-formed.
    Link* prev;
    MP prev_next;  // expected value of *prev while inside a dangerous zone
    Node* curr;
    MP next;
    MP tmp;
    bool in_zone;

    goto init;

  restart:
    h.count_restart();
    if (!control.on_restart()) return FindOutcome::kAborted;

  init:
    g.revalidate();
    switch (control.poll()) {
      case WfPoll::kContinue:
        break;
      case WfPoll::kStale:
      case WfPoll::kDoneFalse:
        return FindOutcome::kExternalFalse;
      case WfPoll::kDoneTrue:
        return FindOutcome::kExternalTrue;
    }
    prev = &head_;
    prev_next = MP{};
    in_zone = false;
    tmp = hp.curr.protect(head_);
    if (!g.valid()) goto restart;
    curr = tmp.ptr();  // tail sentinel at minimum; never null
    next = hp.next.protect(curr->next);
    if (!g.valid()) goto restart;

    for (;;) {
      switch (control.poll()) {
        case WfPoll::kContinue:
          break;
        case WfPoll::kStale:
        case WfPoll::kDoneFalse:
          return FindOutcome::kExternalFalse;
        case WfPoll::kDoneTrue:
          return FindOutcome::kExternalTrue;
      }

      if (next.marked()) {
        // --- dangerous zone (curr is logically deleted) ------------------
        if (!in_zone) {
          in_zone = true;
          if constexpr (Traits::kUnrolled) {
            // Figure 5 right, L48-49: protect the first unsafe node.
            hp.unsafe.dup_from(hp.curr);
            prev_next = MP(curr);
          } else {
            // Figure 5 left: hp.unsafe/prev_next normally already track
            // curr via the last safe advance; the one exception is a chain
            // starting at the very first node (prev == &head_, nothing
            // advanced yet).
            if (!prev_next) {
              hp.unsafe.dup_from(hp.curr);
              prev_next = MP(curr);
            }
          }
          assert(prev_next == MP(curr));
        }
        curr = next.ptr();
        assert(curr != nullptr);  // the tail sentinel is never marked
        hp.curr.dup_from(hp.next);
        next = hp.next.protect(curr->next);
        if (!g.valid()) goto restart;
        // SCOT validation (Figure 5, L55): the last safe node must still
        // point at the first unsafe node, otherwise the chain may have been
        // unlinked and (partially) reclaimed.
        if (prev->load(std::memory_order_seq_cst) != prev_next) {
          if constexpr (Traits::kRecovery) {
            // §3.2.1: if the last safe node is itself still unmarked, the
            // zone was resolved (unlinked or replaced) — continue from its
            // new successor instead of restarting from the head.
            MP w = prev->load(std::memory_order_seq_cst);
            if (!w.marked()) {
              h.count_recovery();
              tmp = hp.curr.protect(*prev);
              if (!g.valid()) goto restart;
              if (tmp.marked()) goto restart;  // prev got marked meanwhile
              curr = tmp.ptr();
              assert(curr != nullptr);
              next = hp.next.protect(curr->next);
              if (!g.valid()) goto restart;
              prev_next = MP{};
              in_zone = false;
              continue;
            }
          }
          goto restart;
        }
        continue;
      }

      // --- safe zone (curr is live) --------------------------------------
      if (!node_less_than_key(curr, key, cmp_)) break;
      prev = &curr->next;
      hp.prev.dup_from(hp.curr);
      if constexpr (Traits::kUnrolled) {
        prev_next = MP{};
      } else {
        // Simple variant: continuously mirror next into hp.unsafe so that
        // zone entry needs no extra work (Figure 5 left, L11-14).
        hp.unsafe.dup_from(hp.next);
        prev_next = next;
      }
      in_zone = false;
      curr = next.ptr();
      assert(curr != nullptr);  // tail sentinel terminates every traversal
      hp.curr.dup_from(hp.next);
      next = hp.next.protect(curr->next);
      if (!g.valid()) goto restart;
    }

    // Settled: curr is the first live node with key >= target.
    if (!search_only && in_zone && prev_next != MP(curr)) {
      // Remove the whole marked chain with one CAS (Figure 5, L57-59).
      MP expected = prev_next;
      if (!prev->compare_exchange_strong(expected, MP(curr),
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed)) {
        goto restart;
      }
      retire_chain(h, prev_next.ptr(), curr);
    }
    out.prev = prev;
    out.curr = curr;
    out.next = next;
    out.found = node_equals_key(curr, key, cmp_);
    return FindOutcome::kOk;
  }

  // Retires every node of an unlinked chain [from, to) — Figure 5,
  // Do_Retire.
  void retire_chain(Handle& h, Node* from, Node* to) {
    while (from != to) {
      Node* next = from->next.load(std::memory_order_relaxed).ptr();
      h.retire(from);
      from = next;
    }
  }

  // --- wait-free traversal machinery (§3.4) ------------------------------

  // Called by Insert/Delete once per retry loop: serve at most one pending
  // help request (Figure 7, Help_Threads).
  void help_others(Guard& g, Hp& hp) {
    Key key;
    std::uint64_t tag;
    unsigned tid;
    if (wf_->poll_for_work(g.handle().tid(), &key, &tag, &tid)) {
      slow_search(g, hp, key, tag, tid);
    }
  }

  // Figure 7, Slow_Search: the traversal itself is the SCOT Do_Find; every
  // iteration polls the helpee's record for an externally published result.
  bool slow_search(Guard& g, Hp& hp, const Key& key, std::uint64_t tag,
                   unsigned help_tid) {
    Position pos;
    FindOutcome out = do_find(g, hp, key, /*search_only=*/true, pos,
                              HelpControl{wf_.get(), help_tid, tag});
    switch (out) {
      case FindOutcome::kExternalTrue:
        return true;
      case FindOutcome::kExternalFalse:
        return false;
      case FindOutcome::kOk:
        return wf_->publish_result(help_tid, tag, pos.found);
      case FindOutcome::kAborted:
        break;  // unreachable: HelpControl never aborts
    }
    assert(false && "slow_search: unexpected outcome");
    return false;
  }

  alignas(kCacheLine) Link head_{MP{}};
  Smr& smr_;
  [[no_unique_address]] Compare cmp_;
  std::unique_ptr<WfHelpRegistry<Key>> wf_;
};

}  // namespace scot
