// Dangerous-zone behaviour of the SCOT Harris list, driven deterministically
// through the debug_mark_only() hook: traversals must skip logically deleted
// chains (optimistic traversal), updates must prune whole chains with one
// CAS, and the recovery optimization must engage instead of full restarts
// when the last safe node stays live.
#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr>
class ScotZoneTest : public ::testing::Test {};

TYPED_TEST_SUITE(ScotZoneTest, test::AllSchemes);

template <class List, class Smr>
void fill(List& list, Smr& smr, Key n) {
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < n; ++k) ASSERT_TRUE(list.insert(h, k, k));
}

TYPED_TEST(ScotZoneTest, SearchSkipsMarkedChainWithoutUnlinking) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 8);
  // Build the chain 2 -> 3 -> 4 (all logically deleted, still linked).
  for (Key k : {2, 3, 4}) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_EQ(list.physical_size_unsafe(), 8u) << "chain must stay linked";
  EXPECT_EQ(list.size_unsafe(), 5u) << "marked nodes are logically gone";

  // Optimistic traversal: search crosses the zone and does NOT unlink.
  EXPECT_FALSE(list.contains(h, 3));
  EXPECT_TRUE(list.contains(h, 5));
  EXPECT_TRUE(list.contains(h, 7));
  EXPECT_EQ(list.physical_size_unsafe(), 8u)
      << "search-only traversals must never write (read-only optimism)";
}

TYPED_TEST(ScotZoneTest, UpdateTraversalPrunesWholeChainWithOneCas) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 8);
  for (Key k : {2, 3, 4}) ASSERT_TRUE(list.debug_mark_only(h, k));
  const std::int64_t pending_before = smr.pending_nodes();

  // An update that settles right after the chain (first live key >= 4 is 5)
  // must prune the whole chain with its single finishing CAS.  Re-inserting
  // 4 is legal: the marked 4 is logically absent.
  EXPECT_TRUE(list.insert(h, 4, 44));
  EXPECT_EQ(list.physical_size_unsafe(), 6u) << "2,3,4 pruned; new 4 added";
  EXPECT_EQ(smr.pending_nodes(), pending_before + 3)
      << "the whole chain must be retired by the pruning traversal";
  EXPECT_FALSE(list.contains(h, 2));
  EXPECT_FALSE(list.contains(h, 3));
  EXPECT_EQ(list.get(h, 4).value_or(0), 44u) << "new incarnation visible";
  EXPECT_TRUE(list.contains(h, 5));
}

TYPED_TEST(ScotZoneTest, ChainAtHeadIsTraversedAndPruned) {
  // The zone can start at the very first node (prev == &head anchor); this
  // exercises the simple-traversal fix-up documented in do_find.
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam, HarrisListSimpleTraits> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 6);
  for (Key k : {0, 1, 2}) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_FALSE(list.contains(h, 0));
  EXPECT_TRUE(list.contains(h, 3));
  EXPECT_TRUE(list.erase(h, 3));  // update traversal prunes the head chain
  EXPECT_EQ(list.physical_size_unsafe(), 2u);
}

TYPED_TEST(ScotZoneTest, ChainAtTailBeforeSentinel) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 6);
  for (Key k : {4, 5}) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_FALSE(list.contains(h, 5));
  EXPECT_TRUE(list.contains(h, 3));
  // Insert beyond every live key: settles on the tail sentinel, pruning the
  // trailing chain on the way.
  EXPECT_TRUE(list.insert(h, 50, 0));
  EXPECT_EQ(list.physical_size_unsafe(), 5u);
  EXPECT_EQ(list.size_unsafe(), 5u);
}

TYPED_TEST(ScotZoneTest, EntireListMarked) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 10);
  for (Key k = 0; k < 10; ++k) ASSERT_TRUE(list.debug_mark_only(h, k));
  EXPECT_EQ(list.size_unsafe(), 0u);
  for (Key k = 0; k < 10; ++k) EXPECT_FALSE(list.contains(h, k));
  EXPECT_TRUE(list.insert(h, 3, 33));  // prunes through the zone
  EXPECT_TRUE(list.contains(h, 3));
  EXPECT_EQ(list.get(h, 3).value_or(0), 33u);
}

TYPED_TEST(ScotZoneTest, AdjacentChainsSeparatedByLiveNode) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  fill(list, smr, 10);
  for (Key k : {1, 2}) ASSERT_TRUE(list.debug_mark_only(h, k));
  for (Key k : {4, 5}) ASSERT_TRUE(list.debug_mark_only(h, k));
  // Both zones crossed read-only:
  EXPECT_TRUE(list.contains(h, 3));
  EXPECT_TRUE(list.contains(h, 6));
  EXPECT_FALSE(list.contains(h, 4));
  // An update settling at 6 prunes only the *adjacent* chain {4,5} (Harris
  // semantics: earlier chains are skipped, not cleaned).
  EXPECT_TRUE(list.erase(h, 6));
  EXPECT_EQ(list.physical_size_unsafe(), 7u) << "only 4,5,6 removed";
}

TYPED_TEST(ScotZoneTest, ConcurrentZoneTraversalVsPruning) {
  // Readers repeatedly cross a marked chain while writers prune and rebuild
  // it; under robust schemes this is exactly the Figure 2 race that SCOT
  // makes safe.
  TypeParam smr(test::small_config(4));
  HarrisList<Key, Val, TypeParam> list(smr);
  fill(list, smr, 64);
  std::atomic<bool> stop{false};
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    if (tid == 0) {
      Xoshiro256 rng(1);
      for (int i = 0; i < 20000; ++i) {
        // Mark a little run, then prune it via an update traversal.
        const Key base = rng.next_in(60);
        for (Key k = base; k < base + 3; ++k) list.debug_mark_only(h, k);
        list.insert(h, base + 3, 0);  // prunes the adjacent chain
        for (Key k = base; k < base + 4; ++k) list.insert(h, k, k);
      }
      stop.store(true);
    } else {
      Xoshiro256 rng(tid);
      while (!stop.load(std::memory_order_relaxed)) {
        list.contains(h, rng.next_in(64));
      }
    }
  });
  // Coherence drain.
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < 64; ++k) {
    { const bool was_present = list.contains(h, k); const bool erased = list.erase(h, k); EXPECT_EQ(was_present, erased) << "key " << k; }
  }
}

TYPED_TEST(ScotZoneTest, RecoveryOptimizationEngagesUnderContention) {
  // With recovery enabled, validation failures on a live last-safe-node turn
  // into zone escapes (ds_recoveries) instead of full restarts.  We assert
  // the plumbing works: under pruning contention the recovery counter can
  // only be nonzero when the trait is on.
  TypeParam smr(test::small_config(4));
  HarrisList<Key, Val, TypeParam, HarrisListNoRecoveryTraits> list(smr);
  fill(list, smr, 32);
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid + 5);
    for (int i = 0; i < 20000; ++i) {
      const Key k = rng.next_in(32);
      if (rng.next_in(2)) {
        list.debug_mark_only(h, k);
      } else {
        list.insert(h, k, k);
      }
      list.contains(h, rng.next_in(32));
    }
  });
  EXPECT_EQ(smr.recoveries(), 0u) << "recovery must never fire when disabled";
}

}  // namespace
}  // namespace scot
