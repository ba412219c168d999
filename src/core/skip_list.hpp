// Lock-free skip list with SCOT traversals — the remaining rows of the
// paper's Table 1.
//
// Two variants via Traits:
//  * kEagerUnlink = false (default): Fraser-style **optimistic traversal**
//    (paper: "Fraser's Skip List — Fast, incompatible with HP* without
//    SCOT").  Searches cross chains of logically deleted nodes per level;
//    update traversals prune the chain adjacent to their settle position
//    with a single CAS per level.  SCOT's dangerous-zone validation (last
//    safe node still points at the first unsafe node, checked after every
//    in-zone protection) makes this safe under HP/HE/IBR/Hyaline-1S.
//  * kEagerUnlink = true: Herlihy-Shavit-style **eager unlink** (paper:
//    "moderately fast, already HP-compatible"): every encountered marked
//    node is unlinked immediately, restarting on CAS failure — including by
//    searches.
//
// Structure: a tower node owns `height` forward links, each carrying the
// level's mark bit (marking proceeds from the top level down; the level-0
// mark is the deletion's linearization point).  Level lists are Harris
// lists sharing the nodes.  Physical unlinking never retires: a node can be
// linked at several levels at once, so only its deleting *owner* retires
// it, after a full traversal pass confirms it is unlinked from every level
// (absence from the adjacent chain at each level implies absence from the
// level, because all intermediate nodes with smaller keys are marked).
//
// Protection roles per level (guard slots, ascending-dup
// discipline as in the list): hp.next, hp.curr, hp.prev (last safe),
// hp.unsafe (first unsafe), plus hp.own — held by insert() on its *own*
// node across the upper-level linking phase.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/align.hpp"
#include "common/asymfence.hpp"
#include "common/stable_atomic.hpp"
#include "common/xorshift.hpp"
#include "core/marked_ptr.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

struct SkipListTraits {
  static constexpr bool kEagerUnlink = false;  // SCOT optimistic traversal
  static constexpr unsigned kMaxHeight = 12;
};

struct SkipListEagerTraits : SkipListTraits {
  static constexpr bool kEagerUnlink = true;  // Herlihy-Shavit discipline
};

template <class Key, class Value, SmrDomain Smr,
          class Traits = SkipListTraits, class Compare = std::less<Key>>
class SkipList {
 public:
  static constexpr unsigned kMaxHeight = Traits::kMaxHeight;

  // Tower links are StableAtomic: nodes are pool-recycled while stale
  // optimistic readers may still protect() through them, so (re)initialising
  // a link must be an atomic store, not a plain constructor write
  // (DESIGN.md §4).
  struct Node : ReclaimNode {
    Key key;
    Value value;
    std::uint8_t rank;  // 0 = real key, 1 = +infinity tail sentinel
    std::uint8_t height;
    StableAtomic<marked_ptr<Node>> next[kMaxHeight];

    Node(const Key& k, const Value& v, std::uint8_t r, std::uint8_t hgt)
        : key(k), value(v), rank(r), height(hgt) {
      for (auto& n : next)
        n.store(marked_ptr<Node>{}, std::memory_order_relaxed);
    }
  };
  using MP = marked_ptr<Node>;
  using Link = StableAtomic<MP>;
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;
  using NodeSlot = ProtectionSlot<Handle, Node>;

  static constexpr unsigned kSlotsRequired = 5;

  // Slot roles in index (= ascending-dup) order.  `own` is published by
  // insert() on its own node across the upper-level linking phase: a racing
  // deletion may retire the node while a level splice is still in flight,
  // and the splice (or the untangling that follows it) dereferences it.
  struct Hp {
    NodeSlot next, curr, prev, unsafe, own;
    explicit Hp(Guard& g)
        : next(g.template slot<Node>()),
          curr(g.template slot<Node>()),
          prev(g.template slot<Node>()),
          unsafe(g.template slot<Node>()),
          own(g.template slot<Node>()) {}
  };

  explicit SkipList(Smr& smr, Compare cmp = {}) : smr_(smr), cmp_(cmp) {
    auto h = scoped_handle(smr_);
    Node* tail = h->template alloc<Node>(
        Key{}, Value{}, std::uint8_t{1}, static_cast<std::uint8_t>(kMaxHeight));
    for (unsigned l = 0; l < kMaxHeight; ++l)
      head_[l].store(MP(tail), std::memory_order_relaxed);
    // Publication fence for the relaxed head stores above; routed through
    // the TSan-aware helper because TSan does not instrument raw
    // atomic_thread_fence (and GCC warns about it under -fsanitize=thread).
    asymfence::release_fence();
  }

  ~SkipList() {
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    Node* n = head_[0].load(std::memory_order_relaxed).ptr();
    while (n != nullptr) {
      Node* next = n->next[0].load(std::memory_order_relaxed).ptr();
      h.dealloc_unpublished(n);
      n = next;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  bool insert(Handle& h, const Key& key, const Value& value = {}) {
    Guard guard(h);
    Hp hp(guard);
    const std::uint8_t height = random_height();
    Node* node = nullptr;
    // --- link level 0 (the insertion's linearization point) ---
    for (;;) {
      Position pos;
      if (!find(guard, hp, key, /*update=*/true, /*stop_level=*/0, nullptr,
                &pos))
        continue;
      if (pos.found) {
        if (node != nullptr) h.dealloc_unpublished(node);
        return false;
      }
      if (node == nullptr) {
        node = h.template alloc<Node>(key, value, std::uint8_t{0}, height);
        protect_own(hp, node);
        if (!guard.valid()) {
          // Hyaline refreshed its reservation to cover the fresh node; the
          // traversal state is stale, but nothing was published yet.
          guard.revalidate();
          continue;
        }
      }
      node->next[0].store(MP(pos.curr), std::memory_order_relaxed);
      MP expected(pos.curr);
      if (pos.prev_field->compare_exchange_strong(expected, MP(node),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_relaxed)) {
        break;
      }
    }
    // --- link levels 1..height-1 ---
    // The hp.own protection published above stays in place for this whole
    // phase: a concurrent erase() may mark, prune, *and retire* the node at
    // any moment, and we still dereference it below.
    for (unsigned l = 1; l < height; ++l) {
      for (;;) {
        MP cur = node->next[l].load(std::memory_order_acquire);
        if (cur.marked()) return true;  // deleted before this level was set
        Position pos;
        if (!find(guard, hp, key, /*update=*/true, l, nullptr, &pos)) continue;
        if (pos.curr == node) break;  // already linked at this level
        // Point the node's level-l link at the successor, then splice.
        if (!node->next[l].compare_exchange_strong(
                cur, MP(pos.curr), std::memory_order_seq_cst,
                std::memory_order_relaxed)) {
          continue;  // re-evaluate (possibly marked now)
        }
        MP expected(pos.curr);
        if (pos.prev_field->compare_exchange_strong(expected, MP(node),
                                                    std::memory_order_seq_cst,
                                                    std::memory_order_relaxed)) {
          // The deletion may have marked level l between our next[l] CAS
          // and this splice — in which case its confirmation pass may have
          // missed the node entirely and already retired it.  Untangle the
          // node from every level before dropping our protection, so the
          // list can never hold a link to reclaimable memory.
          if (node->next[l].load(std::memory_order_seq_cst).marked()) {
            untangle(guard, hp, key, node);
            return true;
          }
          break;
        }
      }
    }
    return true;
  }

  bool erase(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    for (;;) {
      Position pos;
      if (!find(guard, hp, key, /*update=*/true, 0, nullptr, &pos)) continue;
      if (!pos.found) return false;
      Node* node = pos.curr;  // protected by hp.curr until we own or give up
      // Mark from the top level down; level 0 decides the winner.
      for (unsigned l = node->height; l-- > 1;) {
        MP m = node->next[l].load(std::memory_order_acquire);
        while (!m.marked()) {
          if (node->next[l].compare_exchange_weak(m, m.with_mark(),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_acquire)) {
            break;
          }
        }
      }
      MP m = node->next[0].load(std::memory_order_acquire);
      for (;;) {
        if (m.marked()) break;  // another deleter won
        if (node->next[0].compare_exchange_weak(m, m.with_mark(),
                                                std::memory_order_seq_cst,
                                                std::memory_order_acquire)) {
          // We own the deletion: unlink from every level, then retire.
          // (Only the owner ever retires a node, so cross-level pruning by
          // other traversals cannot double-free.)
          untangle(guard, hp, key, node);
          h.retire(node);
          return true;
        }
      }
      // Lost the level-0 race: help clean up, report absent.
      Position unused;
      (void)find(guard, hp, key, /*update=*/true, 0, nullptr, &unused);
      return false;
    }
  }

  bool contains(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    Position pos;
    while (!find(guard, hp, key, /*update=*/false, 0, nullptr, &pos)) {
    }
    return pos.found;
  }

  std::optional<Value> get(Handle& h, const Key& key) {
    Guard guard(h);
    Hp hp(guard);
    Position pos;
    while (!find(guard, hp, key, /*update=*/false, 0, nullptr, &pos)) {
    }
    if (!pos.found) return std::nullopt;
    return pos.curr->value;  // protected by hp.curr
  }

  // Single-threaded observers for tests.
  std::size_t size_unsafe() const {
    std::size_t n = 0;
    const Node* c = head_[0].load(std::memory_order_acquire).ptr();
    while (c != nullptr) {
      if (c->rank == 0 && !c->next[0].load(std::memory_order_acquire).marked())
        ++n;
      c = c->next[0].load(std::memory_order_acquire).ptr();
    }
    return n;
  }

  // Every level must be a sorted sublist of level 0 (ignoring marks).
  bool check_structure_unsafe() const {
    for (unsigned l = 0; l < kMaxHeight; ++l) {
      const Node* c = head_[l].load(std::memory_order_acquire).ptr();
      const Node* prev = nullptr;
      while (c != nullptr) {
        if (prev != nullptr && c->rank == 0 && prev->rank == 0 &&
            !cmp_(prev->key, c->key)) {
          return false;  // out of order at this level
        }
        if (l >= c->height && c->rank == 0) return false;  // over-linked
        prev = c;
        c = c->next[l].load(std::memory_order_acquire).ptr();
      }
      if (prev == nullptr || prev->rank != 1) return false;  // lost the tail
    }
    return true;
  }

 private:
  struct Position {
    Link* prev_field;
    Node* curr;
    MP next;
    bool found;
    bool saw_watch;
  };

  bool key_less(const Node* n, const Key& key) const {
    return n->rank == 0 && cmp_(n->key, key);
  }
  bool key_equal(const Node* n, const Key& key) const {
    return n->rank == 0 && !cmp_(n->key, key) && !cmp_(key, n->key);
  }

  // One traversal from the top level down to `stop_level`.  Returns false
  // when the traversal must restart (the caller loops); on success fills
  // `out` with the settle position at `stop_level`.  `watch` reports
  // whether a specific node was still physically linked on the path.
  bool find(Guard& g, Hp& hp, const Key& key, bool update,
            unsigned stop_level, const Node* watch, Position* out) {
    g.revalidate();
    bool saw_watch = false;
    unsigned level = kMaxHeight - 1;
    Node* prev_node = nullptr;  // nullptr = head tower (immortal)
    Link* prev_field = &head_[level];
    MP prev_next{};
    bool in_zone = false;

    MP cm = hp.curr.protect(*prev_field);
    if (!g.valid() || cm.marked()) return fail(g);
    Node* curr = cm.ptr();

    for (;;) {
      MP next = hp.next.protect(curr->next[level]);
      if (!g.valid()) return fail(g);
      if (curr == watch) saw_watch = true;

      if (next.marked()) {
        if constexpr (Traits::kEagerUnlink) {
          // Herlihy-Shavit: unlink immediately, restart on failure —
          // searches included.
          MP expected(curr);
          if (!prev_field->compare_exchange_strong(
                  expected, next.clean(), std::memory_order_seq_cst,
                  std::memory_order_relaxed)) {
            return fail(g);
          }
          curr = next.ptr();
          hp.curr.dup_from(hp.next);
          continue;
        } else {
          // SCOT dangerous zone for this level.
          if (!in_zone) {
            in_zone = true;
            hp.unsafe.dup_from(hp.curr);
            prev_next = MP(curr);
          }
          curr = next.ptr();
          assert(curr != nullptr);  // the tail tower is never marked
          hp.curr.dup_from(hp.next);
          if (prev_field->load(std::memory_order_seq_cst) != prev_next)
            return fail(g);
          continue;
        }
      }

      if (key_less(curr, key)) {
        prev_field = &curr->next[level];
        prev_node = curr;
        hp.prev.dup_from(hp.curr);
        in_zone = false;
        prev_next = MP{};
        curr = next.ptr();
        assert(curr != nullptr);
        hp.curr.dup_from(hp.next);
        continue;
      }

      // Settled at this level: prune the adjacent chain (update mode).
      if constexpr (!Traits::kEagerUnlink) {
        if (update && in_zone && prev_next != MP(curr)) {
          MP expected = prev_next;
          if (!prev_field->compare_exchange_strong(
                  expected, MP(curr), std::memory_order_seq_cst,
                  std::memory_order_relaxed)) {
            return fail(g);
          }
          // Deliberately no retire: nodes span levels; owners retire.
        }
      }
      if (level == stop_level) {
        out->prev_field = prev_field;
        out->curr = curr;
        out->next = next;
        out->found = key_equal(curr, key);
        out->saw_watch = saw_watch;
        return true;
      }
      // Descend along the last safe node (or the head tower).
      --level;
      prev_field = prev_node ? &prev_node->next[level] : &head_[level];
      in_zone = false;
      prev_next = MP{};
      cm = hp.curr.protect(*prev_field);
      if (!g.valid()) return fail(g);
      if (cm.marked()) return fail(g);  // prev got deleted mid-descent
      curr = cm.ptr();
    }
  }

  bool fail(Guard& g) {
    g.handle().count_restart();
    return false;
  }

  // Publishes protection for a node this thread just allocated.  The local
  // atomic makes the generic protect() applicable: HP/HE publish a slot;
  // Hyaline-1S refreshes its reservation if the node is younger than it
  // (raising the restart flag the caller must honour before reusing any
  // previously read pointers).
  void protect_own(Hp& hp, Node* node) {
    std::atomic<MP> own{MP(node)};
    (void)hp.own.protect(own);
  }

  // Traverses (pruning) until `node` is no longer physically linked at any
  // level.  Callers must hold a protection on `node` or own its retirement.
  void untangle(Guard& g, Hp& hp, const Key& key, const Node* node) {
    for (;;) {
      Position pos;
      if (!find(g, hp, key, /*update=*/true, 0, node, &pos)) continue;
      if (!pos.saw_watch) return;
    }
  }

  std::uint8_t random_height() {
    thread_local Xoshiro256 rng(
        0x5eed ^ reinterpret_cast<std::uintptr_t>(&rng));
    std::uint8_t height = 1;
    while (height < kMaxHeight && (rng.next() & 1) != 0) ++height;
    return height;
  }

  alignas(kCacheLine) Link head_[kMaxHeight];
  Smr& smr_;
  [[no_unique_address]] Compare cmp_;
};

}  // namespace scot
