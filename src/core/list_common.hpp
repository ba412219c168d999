// Shared pieces of the two linked-list implementations.
#pragma once

#include <functional>

#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
#include "smr/reclaim_node.hpp"

namespace scot {

// Node layout shared by Harris' and Harris-Michael lists.  The list is
// terminated by a tail sentinel (`rank == 1`, conceptually key == +inf) that
// is never deleted, which lets Do_Find avoid null-successor special cases —
// this mirrors the paper's Figure 3, where Init() installs a single sentinel
// whose key compares greater than every real key.
//
// The link word is a StableAtomic: the pool recycles nodes while stale
// optimistic readers may still protect() through them, so re-initialising
// `next` must be an atomic store, not a plain constructor write
// (DESIGN.md §4).
template <class Key, class Value>
struct ListNode : ReclaimNode {
  Key key;
  Value value;
  std::uint8_t rank;  // 0 = real key, 1 = +infinity tail sentinel
  StableAtomic<marked_ptr<ListNode>> next;

  ListNode(const Key& k, const Value& v, std::uint8_t r)
      : key(k), value(v), rank(r), next(marked_ptr<ListNode>{}) {}
};

// Rank-aware comparisons: the tail sentinel is greater than everything.
template <class Node, class Key, class Compare>
inline bool node_less_than_key(const Node* n, const Key& key,
                               const Compare& cmp) {
  return n->rank == 0 && cmp(n->key, key);
}

template <class Node, class Key, class Compare>
inline bool node_equals_key(const Node* n, const Key& key,
                            const Compare& cmp) {
  return n->rank == 0 && !cmp(n->key, key) && !cmp(key, n->key);
}

// Three-way form (node vs. key) for the shared SCOT traversal.
template <class Node, class Key, class Compare>
inline int node_compare_key(const Node* n, const Key& key,
                            const Compare& cmp) {
  if (n->rank != 0) return 1;
  if (cmp(n->key, key)) return -1;
  return cmp(key, n->key) ? 1 : 0;
}

}  // namespace scot
