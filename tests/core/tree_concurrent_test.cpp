// Concurrent Natarajan-Mittal tree tests: the tagged-edge pruning races are
// the tree-shaped version of the Figure 2 hazard, so these lean on tiny key
// ranges to maximize chain formation and helping.
#include <gtest/gtest.h>

#include <atomic>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr>
class TreeConcurrentTest : public ::testing::Test {};

TYPED_TEST_SUITE(TreeConcurrentTest, test::AllSchemes);

TYPED_TEST(TreeConcurrentTest, DisjointInsertsAllPresent) {
  TypeParam smr(test::small_config(4));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  constexpr Key kPerThread = 500;
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    for (Key i = 0; i < kPerThread; ++i) {
      ASSERT_TRUE(tree.insert(h, i * 4 + tid, tid));
    }
  });
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_EQ(tree.size_unsafe(), 4 * kPerThread);
  EXPECT_TRUE(tree.check_structure_unsafe());
  for (Key k = 0; k < 4 * kPerThread; ++k) {
    ASSERT_TRUE(tree.contains(h, k)) << k;
  }
}

TYPED_TEST(TreeConcurrentTest, DisjointErasesAllGone) {
  TypeParam smr(test::small_config(4));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  auto sh0 = scoped_handle(smr);
  auto& h0 = *sh0;
  for (Key k = 0; k < 2000; ++k) ASSERT_TRUE(tree.insert(h0, k, k));
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    for (Key i = 0; i < 500; ++i) {
      ASSERT_TRUE(tree.erase(h, i * 4 + tid)) << i * 4 + tid;
    }
  });
  EXPECT_EQ(tree.size_unsafe(), 0u);
  EXPECT_TRUE(tree.check_structure_unsafe());
}

TYPED_TEST(TreeConcurrentTest, SameKeyEraseExactlyOneWins) {
  TypeParam smr(test::small_config(4));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  const int rounds = test::scaled_iters(200);
  for (int round = 0; round < rounds; ++round) {
    ASSERT_TRUE(tree.insert(*scoped_handle(smr), 9, 9));
    std::atomic<int> wins{0};
    test::run_threads(4, [&](unsigned) {
      if (tree.erase(*scoped_handle(smr), 9)) wins.fetch_add(1);
    });
    EXPECT_EQ(wins.load(), 1) << "round " << round;
    EXPECT_FALSE(tree.contains(*scoped_handle(smr), 9));
    EXPECT_TRUE(tree.check_structure_unsafe()) << "round " << round;
  }
}

TYPED_TEST(TreeConcurrentTest, SameKeyInsertExactlyOneWins) {
  TypeParam smr(test::small_config(4));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  const int rounds = test::scaled_iters(200);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> wins{0};
    test::run_threads(4, [&](unsigned tid) {
      if (tree.insert(*scoped_handle(smr), 9, tid)) wins.fetch_add(1);
    });
    EXPECT_EQ(wins.load(), 1) << "round " << round;
    ASSERT_TRUE(tree.erase(*scoped_handle(smr), 9));
  }
}

TYPED_TEST(TreeConcurrentTest, SiblingDeletesRace) {
  // Deleting both children of one internal node concurrently is the
  // double-flag case retire_chain must disambiguate via the survivor.
  TypeParam smr(test::small_config(2));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  const int rounds = test::scaled_iters(500);
  for (int round = 0; round < rounds; ++round) {
    auto sh0 = scoped_handle(smr);
    auto& h0 = *sh0;
    ASSERT_TRUE(tree.insert(h0, 10, 0));
    ASSERT_TRUE(tree.insert(h0, 20, 0));
    std::atomic<int> wins{0};
    test::run_threads(2, [&](unsigned tid) {
      auto sh = scoped_handle(smr);
      auto& h = *sh;
      if (tree.erase(h, tid == 0 ? 10 : 20)) wins.fetch_add(1);
    });
    EXPECT_EQ(wins.load(), 2) << "both deletes target distinct keys";
    EXPECT_EQ(tree.size_unsafe(), 0u) << "round " << round;
    EXPECT_TRUE(tree.check_structure_unsafe()) << "round " << round;
  }
}

TYPED_TEST(TreeConcurrentTest, TinyRangeChurnCoherence) {
  TypeParam smr(test::small_config(8));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  test::run_threads(8, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid * 31 + 7);
    const int iters = test::scaled_iters(40000);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(12);
      switch (rng.next_in(4)) {
        case 0:
        case 1:
          tree.insert(h, k, k);
          break;
        case 2:
          tree.erase(h, k);
          break;
        default:
          tree.contains(h, k);
          break;
      }
    }
  });
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_TRUE(tree.check_structure_unsafe());
  for (Key k = 0; k < 12; ++k) {
    { const bool was_present = tree.contains(h, k); const bool erased = tree.erase(h, k); EXPECT_EQ(was_present, erased) << "key " << k; }
  }
  EXPECT_EQ(tree.size_unsafe(), 0u);
}

TYPED_TEST(TreeConcurrentTest, StableKeysSurviveNeighbourChurn) {
  TypeParam smr(test::small_config(4));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  for (Key k = 0; k < 64; k += 2)
    ASSERT_TRUE(tree.insert(*scoped_handle(smr), k, k));
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid + 3);
    if (tid == 0) {
      const int iters = test::scaled_iters(40000);
      for (int i = 0; i < iters; ++i) {
        const Key k = rng.next_in(32) * 2 + 1;  // odd keys only
        if (rng.next_in(2)) {
          tree.insert(h, k, k);
        } else {
          tree.erase(h, k);
        }
      }
      stop.store(true);
    } else {
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.next_in(32) * 2;
        if (!tree.contains(h, k)) misses.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(misses.load(), 0) << "even keys were never deleted";
}

TYPED_TEST(TreeConcurrentTest, MixedSizesRangeChurn) {
  TypeParam smr(test::small_config(4));
  NatarajanMittalTree<Key, Val, TypeParam> tree(smr);
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid * 101 + 1);
    const int iters = test::scaled_iters(30000);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(1024);
      if (rng.next_in(2)) {
        tree.insert(h, k, k);
      } else {
        tree.erase(h, k);
      }
    }
  });
  EXPECT_TRUE(tree.check_structure_unsafe());
  // Drain and verify coherence.
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < 1024; ++k) {
    { const bool was_present = tree.contains(h, k); const bool erased = tree.erase(h, k); EXPECT_EQ(was_present, erased); }
  }
  EXPECT_EQ(tree.size_unsafe(), 0u);
}

}  // namespace
}  // namespace scot
