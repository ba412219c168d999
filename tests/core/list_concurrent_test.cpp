// Concurrent list tests: disjoint-key determinism, same-key mutual
// exclusion, mixed churn with post-hoc coherence, and restart accounting
// (the behavioural basis of Table 2).
#include <gtest/gtest.h>

#include <atomic>

#include "core/any_map.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr>
class ListConcurrentTest : public ::testing::Test {};

TYPED_TEST_SUITE(ListConcurrentTest, test::AllSchemes);

// Each thread inserts its own residue class; everything must be present.
template <class List, class Smr>
void disjoint_inserts(Smr& smr, unsigned threads, Key per_thread) {
  List list(smr);
  test::run_threads(threads, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    for (Key i = 0; i < per_thread; ++i) {
      ASSERT_TRUE(list.insert(h, i * threads + tid, tid));
    }
  });
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_EQ(list.size_unsafe(), threads * per_thread);
  for (Key k = 0; k < threads * per_thread; ++k) {
    EXPECT_TRUE(list.contains(h, k)) << "missing key " << k;
    EXPECT_EQ(list.get(h, k).value_or(~0ull), k % threads);
  }
}

TYPED_TEST(ListConcurrentTest, DisjointInsertsAllPresentHM) {
  TypeParam smr(test::small_config(4));
  disjoint_inserts<HarrisMichaelList<Key, Val, TypeParam>>(smr, 4, 300);
}
TYPED_TEST(ListConcurrentTest, DisjointInsertsAllPresentHL) {
  TypeParam smr(test::small_config(4));
  disjoint_inserts<HarrisList<Key, Val, TypeParam>>(smr, 4, 300);
}

// N threads race to insert the same key: exactly one wins; then N race to
// erase it: exactly one wins.
template <class List, class Smr>
void same_key_races(Smr& smr, unsigned threads) {
  List list(smr);
  const int rounds = test::scaled_iters(200);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> ins_wins{0}, del_wins{0};
    test::run_threads(threads, [&](unsigned tid) {
      auto sh = scoped_handle(smr);
      auto& h = *sh;
      if (list.insert(h, 42, tid)) ins_wins.fetch_add(1);
    });
    EXPECT_EQ(ins_wins.load(), 1) << "round " << round;
    test::run_threads(threads, [&](unsigned) {
      auto sh = scoped_handle(smr);
      auto& h = *sh;
      if (list.erase(h, 42)) del_wins.fetch_add(1);
    });
    EXPECT_EQ(del_wins.load(), 1) << "round " << round;
    EXPECT_FALSE(list.contains(*scoped_handle(smr), 42));
  }
}

TYPED_TEST(ListConcurrentTest, SameKeyInsertEraseMutualExclusionHM) {
  TypeParam smr(test::small_config(4));
  same_key_races<HarrisMichaelList<Key, Val, TypeParam>>(smr, 4);
}
TYPED_TEST(ListConcurrentTest, SameKeyInsertEraseMutualExclusionHL) {
  TypeParam smr(test::small_config(4));
  same_key_races<HarrisList<Key, Val, TypeParam>>(smr, 4);
}

// Mixed churn on a tiny range (maximizes marked-chain traffic), then a
// single-threaded coherence drain: contains/erase must agree on every key.
template <class List, class Smr>
void churn_then_drain(Smr& smr, unsigned threads, Key range, int iters) {
  List list(smr);
  test::run_threads(threads, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid * 7919 + 13);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(range);
      switch (rng.next_in(4)) {
        case 0:
        case 1:
          list.insert(h, k, k);
          break;
        case 2:
          list.erase(h, k);
          break;
        default:
          list.contains(h, k);
          break;
      }
    }
  });
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  std::size_t live = 0;
  for (Key k = 0; k < range; ++k) {
    const bool c = list.contains(h, k);
    const bool e = list.erase(h, k);
    EXPECT_EQ(c, e) << "key " << k
                    << ": contains and erase disagree after quiescence";
    live += e;
  }
  EXPECT_EQ(list.size_unsafe(), 0u);
  (void)live;
}

TYPED_TEST(ListConcurrentTest, TinyRangeChurnCoherenceHM) {
  TypeParam smr(test::small_config(8));
  churn_then_drain<HarrisMichaelList<Key, Val, TypeParam>>(
      smr, 8, 12, test::scaled_iters(40000));
}
TYPED_TEST(ListConcurrentTest, TinyRangeChurnCoherenceHL) {
  TypeParam smr(test::small_config(8));
  churn_then_drain<HarrisList<Key, Val, TypeParam>>(smr, 8, 12,
                                                    test::scaled_iters(40000));
}
TYPED_TEST(ListConcurrentTest, TinyRangeChurnCoherenceHLSimple) {
  TypeParam smr(test::small_config(8));
  churn_then_drain<HarrisList<Key, Val, TypeParam, HarrisListSimpleTraits>>(
      smr, 8, 12, test::scaled_iters(40000));
}
TYPED_TEST(ListConcurrentTest, TinyRangeChurnCoherenceHLNoRecovery) {
  TypeParam smr(test::small_config(8));
  churn_then_drain<
      HarrisList<Key, Val, TypeParam, HarrisListNoRecoveryTraits>>(
      smr, 8, 12, test::scaled_iters(40000));
}

TYPED_TEST(ListConcurrentTest, ReadersNeverObserveErasedThenPresentKey) {
  // A fixed key is inserted once and never erased: concurrent readers must
  // always find it, no matter how much churn surrounds it.
  TypeParam smr(test::small_config(4));
  HarrisList<Key, Val, TypeParam> list(smr);
  ASSERT_TRUE(list.insert(*scoped_handle(smr), 500, 1));
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    if (tid == 0) {
      Xoshiro256 rng(3);
      const int iters = test::scaled_iters(60000);
      for (int i = 0; i < iters; ++i) {
        const Key k = 490 + rng.next_in(20);
        if (k == 500) continue;
        if (rng.next_in(2)) {
          list.insert(h, k, k);
        } else {
          list.erase(h, k);
        }
      }
      stop.store(true);
    } else {
      while (!stop.load(std::memory_order_relaxed)) {
        if (!list.contains(h, 500)) misses.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(misses.load(), 0) << "stable key transiently disappeared";
}

TYPED_TEST(ListConcurrentTest, RestartCountersBehaveLikeTable2) {
  // Table 2 of the paper: the Harris-Michael list restarts under contention
  // while Harris+SCOT restarts stay near zero.  With only 2 cores we do not
  // assert a ratio, just that the SCOT list's restarts stay tiny relative to
  // operations while HM's counter is the one that grows when anything does.
  TypeParam smr1(test::small_config(8));
  TypeParam smr2(test::small_config(8));
  HarrisMichaelList<Key, Val, TypeParam> hm(smr1);
  HarrisList<Key, Val, TypeParam> hl(smr2);

  const int kIters = test::scaled_iters(30000);
  auto workload = [&](auto& list, auto& smr) {
    test::run_threads(8, [&](unsigned tid) {
      auto sh = scoped_handle(smr);
      auto& h = *sh;
      Xoshiro256 rng(tid + 100);
      for (int i = 0; i < kIters; ++i) {
        const Key k = rng.next_in(32);
        switch (rng.next_in(4)) {
          case 0:
          case 1:
            list.insert(h, k, k);
            break;
          case 2:
            list.erase(h, k);
            break;
          default:
            list.contains(h, k);
            break;
        }
      }
    });
    return smr.restarts();
  };
  const std::uint64_t hm_restarts = workload(hm, smr1);
  const std::uint64_t hl_restarts = workload(hl, smr2);
  // SCOT restarts only on dangerous-zone invalidation, which needs a chain
  // unlink to race with a traversal inside the chain — rare even on a hot
  // 32-key list.
  EXPECT_LT(hl_restarts, static_cast<std::uint64_t>(8 * kIters / 100))
      << "Harris+SCOT restart rate should stay below 1% of operations";
  this->RecordProperty("hm_restarts", static_cast<int>(hm_restarts));
  this->RecordProperty("hl_restarts", static_cast<int>(hl_restarts));
}

// The facade sums every handle's Table-2 counters while sessions are still
// bumping them (a live dashboard reading restarts() mid-run).  The counters
// are single-writer relaxed atomics, so the read is race-free — TSan checks
// that — and each successive sum can only grow.
TEST(ListConcurrentFacade, RestartsReadableWhileSessionsRun) {
  auto map = AnyMap::make(SchemeId::kHP, StructureId::kHMList,
                          {test::small_config(4), 0});
  ASSERT_TRUE(map);
  constexpr unsigned kWriters = 3;
  const int iters = test::scaled_iters(20000);
  std::atomic<unsigned> done{0};
  std::uint64_t last = 0;
  bool monotonic = true;
  test::run_threads(kWriters + 1, [&](unsigned tid) {
    if (tid == kWriters) {
      while (done.load() < kWriters) {
        const std::uint64_t now = map->restarts() + map->recoveries();
        if (now < last) monotonic = false;
        last = now;
      }
      return;
    }
    auto s = map->session();
    Xoshiro256 rng(tid + 7);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(16);
      if (rng.next_in(2)) {
        s.insert(k, k);
      } else {
        s.erase(k);
      }
    }
    done.fetch_add(1);
  });
  EXPECT_TRUE(monotonic) << "a restart sum went backwards";
  EXPECT_GE(map->restarts() + map->recoveries(), last);
}

}  // namespace
}  // namespace scot
