// Harris' lock-free linked list (Harris, DISC 2001) with **SCOT** — Safe
// Concurrent Optimistic Traversals (the paper's core contribution, §3.2).
//
// The traversal itself — Do_Find of Figure 5 with the dangerous-zone
// validation and the §3.2.1 recovery — lives in core/scot_find.hpp, shared
// with the serving layer's split-ordered hash map.  This class supplies the
// list around it: the head link, the +inf tail sentinel, key comparison,
// Insert/Delete (Figure 3) and the §3.4 wait-free Search.
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
#include "core/scot_find.hpp"
#include "core/wait_free.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

struct HarrisListTraits : ScotFindTraits {
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

  // The traversal's protection roles (core/scot_find.hpp).
  using Hp = ScotHp<Handle, Node>;
  static constexpr unsigned kSlotsRequired = Hp::kSlots;

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
      do_find(guard, hp, key, /*search_only=*/false, pos, UnboundedControl{});
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
      do_find(guard, hp, key, /*search_only=*/false, pos, UnboundedControl{});
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
      do_find(guard, hp, key, /*search_only=*/true, pos, UnboundedControl{});
      return pos.found;
    }
  }

  // Lookup with value copy (lock-free path only; values are immutable once
  // inserted).
  std::optional<Value> get(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    Position pos;
    do_find(guard, hp, key, /*search_only=*/true, pos, UnboundedControl{});
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
      do_find(guard, hp, key, /*search_only=*/true, pos, UnboundedControl{});
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
  using Position = ScotPosition<Node>;

  // --- traversal control policies (UnboundedControl is the default) ------
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

  // SCOT Do_Find (Figure 5) from the list head.
  template <class Control>
  FindOutcome do_find(Guard& g, Hp& hp, const Key& key, bool search_only,
                      Position& out, Control control) {
    const auto cmp = [&](const Node* n) {
      return node_compare_key(n, key, cmp_);
    };
    return scot_find<Traits>(g, hp, head_, cmp, search_only, out, control);
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
