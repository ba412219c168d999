// Skip list tests: both the Fraser-style optimistic (SCOT) variant and the
// Herlihy-Shavit eager-unlink baseline, typed over every SMR scheme.
#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr>
class SkipListTest : public ::testing::Test {};

TYPED_TEST_SUITE(SkipListTest, test::AllSchemes);

template <class SL, class Smr>
void check_semantics(Smr& smr) {
  SL sl(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_FALSE(sl.contains(h, 5));
  EXPECT_FALSE(sl.erase(h, 5));
  EXPECT_TRUE(sl.insert(h, 5, 50));
  EXPECT_FALSE(sl.insert(h, 5, 51)) << "duplicate";
  EXPECT_TRUE(sl.contains(h, 5));
  EXPECT_EQ(sl.get(h, 5).value_or(0), 50u);
  EXPECT_TRUE(sl.erase(h, 5));
  EXPECT_FALSE(sl.erase(h, 5));
  EXPECT_FALSE(sl.contains(h, 5));
  EXPECT_EQ(sl.size_unsafe(), 0u);
  EXPECT_TRUE(sl.check_structure_unsafe());
}

TYPED_TEST(SkipListTest, BasicSemanticsScot) {
  TypeParam smr(test::small_config());
  check_semantics<SkipList<Key, Val, TypeParam>>(smr);
}

TYPED_TEST(SkipListTest, BasicSemanticsEager) {
  TypeParam smr(test::small_config());
  check_semantics<SkipList<Key, Val, TypeParam, SkipListEagerTraits>>(smr);
}

TYPED_TEST(SkipListTest, ManyKeysMirrorReferenceSet) {
  TypeParam smr(test::small_config());
  SkipList<Key, Val, TypeParam> sl(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  std::set<Key> ref;
  Xoshiro256 rng(77);
  const int iters = test::scaled_iters(20000);
  for (int i = 0; i < iters; ++i) {
    const Key k = rng.next_in(300);
    if (rng.next_in(2)) {
      ASSERT_EQ(sl.insert(h, k, k), ref.insert(k).second) << "step " << i;
    } else {
      ASSERT_EQ(sl.erase(h, k), ref.erase(k) == 1) << "step " << i;
    }
  }
  EXPECT_EQ(sl.size_unsafe(), ref.size());
  for (Key k = 0; k < 300; ++k)
    EXPECT_EQ(sl.contains(h, k), ref.count(k) == 1) << k;
  EXPECT_TRUE(sl.check_structure_unsafe());
}

TYPED_TEST(SkipListTest, LevelsStaySortedSublists) {
  TypeParam smr(test::small_config());
  SkipList<Key, Val, TypeParam> sl(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < 500; ++k) ASSERT_TRUE(sl.insert(h, k * 7 % 500, k));
  EXPECT_TRUE(sl.check_structure_unsafe());
  for (Key k = 0; k < 500; k += 3) ASSERT_TRUE(sl.erase(h, k));
  EXPECT_TRUE(sl.check_structure_unsafe());
}

TYPED_TEST(SkipListTest, DisjointConcurrentInserts) {
  TypeParam smr(test::small_config(4));
  SkipList<Key, Val, TypeParam> sl(smr);
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    for (Key i = 0; i < 400; ++i) ASSERT_TRUE(sl.insert(h, i * 4 + tid, tid));
  });
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_EQ(sl.size_unsafe(), 1600u);
  EXPECT_TRUE(sl.check_structure_unsafe());
  for (Key k = 0; k < 1600; ++k) ASSERT_TRUE(sl.contains(h, k)) << k;
}

TYPED_TEST(SkipListTest, SameKeyRaces) {
  TypeParam smr(test::small_config(4));
  SkipList<Key, Val, TypeParam> sl(smr);
  const int rounds = test::scaled_iters(100);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> ins{0}, del{0};
    test::run_threads(4, [&](unsigned tid) {
      if (sl.insert(*scoped_handle(smr), 33, tid)) ins.fetch_add(1);
    });
    EXPECT_EQ(ins.load(), 1) << "round " << round;
    test::run_threads(4, [&](unsigned) {
      if (sl.erase(*scoped_handle(smr), 33)) del.fetch_add(1);
    });
    EXPECT_EQ(del.load(), 1) << "round " << round;
  }
}

template <class SL, class Smr>
void churn_then_drain_sl(Smr& smr, unsigned threads, Key range, int iters) {
  SL sl(smr);
  test::run_threads(threads, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid * 97 + 3);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(range);
      switch (rng.next_in(4)) {
        case 0:
        case 1:
          sl.insert(h, k, k);
          break;
        case 2:
          sl.erase(h, k);
          break;
        default:
          sl.contains(h, k);
          break;
      }
    }
  });
  EXPECT_TRUE(sl.check_structure_unsafe());
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < range; ++k) {
    const bool was_present = sl.contains(h, k);
    const bool erased = sl.erase(h, k);
    ASSERT_EQ(was_present, erased) << "key " << k;
  }
  EXPECT_EQ(sl.size_unsafe(), 0u);
}

TYPED_TEST(SkipListTest, TinyRangeChurnCoherenceScot) {
  TypeParam smr(test::small_config(8));
  churn_then_drain_sl<SkipList<Key, Val, TypeParam>>(smr, 8, 12,
                                                     test::scaled_iters(25000));
}

TYPED_TEST(SkipListTest, TinyRangeChurnCoherenceEager) {
  TypeParam smr(test::small_config(8));
  churn_then_drain_sl<SkipList<Key, Val, TypeParam, SkipListEagerTraits>>(
      smr, 8, 12, test::scaled_iters(25000));
}

TYPED_TEST(SkipListTest, MidRangeChurnCoherence) {
  TypeParam smr(test::small_config(4));
  churn_then_drain_sl<SkipList<Key, Val, TypeParam>>(smr, 4, 512,
                                                     test::scaled_iters(25000));
}

TYPED_TEST(SkipListTest, StableKeysSurviveChurn) {
  TypeParam smr(test::small_config(4));
  SkipList<Key, Val, TypeParam> sl(smr);
  for (Key k = 0; k < 128; k += 2) ASSERT_TRUE(sl.insert(*scoped_handle(smr), k, k));
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid);
    if (tid == 0) {
      const int iters = test::scaled_iters(30000);
      for (int i = 0; i < iters; ++i) {
        const Key k = rng.next_in(64) * 2 + 1;
        if (rng.next_in(2)) {
          sl.insert(h, k, k);
        } else {
          sl.erase(h, k);
        }
      }
      stop.store(true);
    } else {
      while (!stop.load(std::memory_order_relaxed)) {
        if (!sl.contains(h, rng.next_in(64) * 2)) misses.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(misses.load(), 0);
}

}  // namespace
}  // namespace scot
