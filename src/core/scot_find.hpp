// The SCOT Do_Find (paper Figure 5, with the §3.2.1 recovery optimization),
// generic over the node type.  Harris' list (core/harris_list.hpp) and the
// serving layer's split-ordered hash map (kv/kv_hash_map.hpp) both locate
// positions with this one traversal; they differ only in where it starts
// and how a node compares against the target.
//
// Harris' list lets traversals walk *through* chains of logically deleted
// nodes and remove a whole chain with one CAS.  That optimistic traversal is
// incompatible with HP/HE/IBR/Hyaline-1S: a traverser standing inside a
// marked chain follows frozen next-pointers whose targets may already be
// retired and reclaimed (Figure 2 of the paper).  SCOT's fix:
//
//   * hp.prev protects the *last safe* (unmarked) node, hp.unsafe the *first
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
// Contract on the list:
//   * Node derives from ReclaimNode and has a `StableAtomic<marked_ptr<Node>>
//     next`; bit 0 of `next` (kMarkBit) is the logical-deletion mark.
//   * The list is sorted and ends in a tail sentinel that compares greater
//     than every target and is never marked, so a traversal never meets a
//     null successor.
//   * `start` is a link that is never marked and never goes away for the
//     lifetime of the list: the list head, or the `next` of a node that is
//     never deleted (a bucket sentinel).  Its owner needs no protection.
//   * A node is retired only after it is unlinked, and marked chains are
//     unlinked only through their last safe predecessor.
//
// Traits select the paper's variants:
//   kUnrolled  — Figure 5 right (2 dups in the safe zone, 1 in the zone)
//                vs. Figure 5 left (3 dups everywhere);
//   kRecovery  — §3.2.1 recovery optimization.
// The Control policy lets Harris' list bound the fast path and poll the
// §3.4 helping protocol (core/wait_free.hpp); the default never aborts.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
#include "core/wait_free.hpp"
#include "smr/guard.hpp"

namespace scot {

struct ScotFindTraits {
  static constexpr bool kUnrolled = true;
  static constexpr bool kRecovery = true;
};

enum class FindOutcome : std::uint8_t {
  kOk,            // position settled
  kAborted,       // fast-path budget exhausted
  kExternalTrue,  // slow path: another participant published "found"
  kExternalFalse  // slow path: another participant published "not found"
};

// Restarts forever and never polls: the plain lock-free traversal.
struct UnboundedControl {
  bool on_restart() const { return true; }
  WfPoll poll() const { return WfPoll::kContinue; }
};

// The traversal's protection roles.  Construction order is the slot index
// order, so every dup_from below copies toward a higher index (paper §3.2;
// asserted by ProtectionSlot).  Callers that need more roles allocate them
// after constructing this.
template <class Handle, class Node>
struct ScotHp {
  using Slot = ProtectionSlot<Handle, Node>;
  static constexpr unsigned kSlots = 4;

  Slot next, curr, prev, unsafe;
  explicit ScotHp(TraversalGuard<Handle>& g)
      : next(g.template slot<Node>()),
        curr(g.template slot<Node>()),
        prev(g.template slot<Node>()),
        unsafe(g.template slot<Node>()) {}
};

template <class Node>
struct ScotPosition {
  StableAtomic<marked_ptr<Node>>* prev;  // link that points at curr
  Node* curr;                            // protected by hp.curr
  marked_ptr<Node> next;                 // curr's successor word, unmarked
  bool found;                            // curr matches the target
};

// Retires every node of an unlinked chain [from, to) — Figure 5, Do_Retire.
template <class Handle, class Node>
void retire_chain(Handle& h, Node* from, Node* to) {
  while (from != to) {
    Node* next = from->next.load(std::memory_order_relaxed).ptr();
    h.retire(from);
    from = next;
  }
}

// Settles on the first live node `curr` with cmp(curr) >= 0, starting after
// `start`.  cmp(n) is negative while n orders before the target and zero
// when n matches it.  Unless `search_only`, the marked chain in front of
// curr is unlinked with one CAS and retired (Figure 3, L43-44).
template <class Traits = ScotFindTraits, class Handle, class Node, class Cmp,
          class Control = UnboundedControl>
FindOutcome scot_find(TraversalGuard<Handle>& g, ScotHp<Handle, Node>& hp,
                      StableAtomic<marked_ptr<Node>>& start, const Cmp& cmp,
                      bool search_only, ScotPosition<Node>& out,
                      Control control = {}) {
  using MP = marked_ptr<Node>;
  using Link = StableAtomic<MP>;
  Handle& h = g.handle();
  // All locals hoisted so that `goto restart` stays well-formed.
  Link* prev = &start;
  MP prev_next;  // expected value of *prev while inside a dangerous zone
  Node* curr = nullptr;
  MP next;
  MP tmp;
  bool in_zone = false;
  int c = 0;  // cmp(curr) of the settled position

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
  prev = &start;
  prev_next = MP{};
  in_zone = false;
  tmp = hp.curr.protect(start);
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
      // --- dangerous zone (curr is logically deleted) --------------------
      if (!in_zone) {
        in_zone = true;
        if constexpr (Traits::kUnrolled) {
          // Figure 5 right, L48-49: protect the first unsafe node.
          hp.unsafe.dup_from(hp.curr);
          prev_next = MP(curr);
        } else {
          // Figure 5 left: hp.unsafe/prev_next normally already track curr
          // via the last safe advance; the one exception is a chain starting
          // right after `start` (nothing advanced yet).
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
      // SCOT validation (Figure 5, L55): the last safe node must still point
      // at the first unsafe node, otherwise the chain may have been unlinked
      // and (partially) reclaimed.
      if (prev->load(std::memory_order_seq_cst) != prev_next) {
        if constexpr (Traits::kRecovery) {
          // §3.2.1: if the last safe node is itself still unmarked, the zone
          // was resolved (unlinked or replaced) — continue from its new
          // successor instead of restarting from `start`.
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

    // --- safe zone (curr is live) ----------------------------------------
    c = cmp(static_cast<const Node*>(curr));
    if (c >= 0) break;
    prev = &curr->next;
    hp.prev.dup_from(hp.curr);
    if constexpr (Traits::kUnrolled) {
      prev_next = MP{};
    } else {
      // Simple variant: continuously mirror next into hp.unsafe so that zone
      // entry needs no extra work (Figure 5 left, L11-14).
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

  // Settled: curr is the first live node with cmp(curr) >= 0.
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
  out.found = c == 0;
  return FindOutcome::kOk;
}

}  // namespace scot
