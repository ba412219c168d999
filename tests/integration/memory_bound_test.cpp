// Theorem 1 of the paper: with HP, a SCOT structure's total unreclaimed
// memory is O(|D| + N) — concretely at most H*N protected nodes plus N*R
// limbo slack — even while traversals sit inside dangerous zones.  The
// companion EBR runs demonstrate the contrast the paper draws in Figures
// 10-12 (EBR's relaxed reclamation keeps far more garbage around).
#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr, class DS>
std::int64_t churn_pending(unsigned threads, int iters, Key range) {
  auto cfg = test::small_config(threads);
  cfg.scan_threshold = 64;
  // small_config's test default era_freq (8) advances EBR's epoch so fast
  // that EBR reclaims almost as promptly as HP: its garbage plateau (one
  // epoch window, era_freq x threads retirements) lands right at HP's
  // limbo-threshold sawtooth cap (scan_threshold x threads), reducing the
  // EbrKeepsMoreGarbage comparison below to sampling noise.  Slow the
  // clock until the epoch window clearly dominates that cap — this is the
  // direction of the paper's calibration too (era ticks are rarer than
  // scans, §5).  HP ignores the knob entirely, so the Theorem-1 bounds are
  // unaffected.
  cfg.era_freq = 4 * cfg.scan_threshold;
  Smr smr(cfg);
  std::int64_t peak = 0;
  {
    DS ds(smr);
    std::atomic<std::int64_t> observed_peak{0};
    test::run_threads(threads, [&](unsigned tid) {
      auto sh = scoped_handle(smr);
      auto& h = *sh;
      Xoshiro256 rng(tid + 29);
      for (int i = 0; i < iters; ++i) {
        const Key k = rng.next_in(range);
        if (rng.next_in(2)) {
          ds.insert(h, k, k);
        } else {
          ds.erase(h, k);
        }
        if ((i & 1023) == 0) {
          std::int64_t p = smr.pending_nodes();
          std::int64_t cur = observed_peak.load();
          while (p > cur && !observed_peak.compare_exchange_weak(cur, p)) {
          }
        }
      }
    });
    peak = observed_peak.load();
  }
  return peak;
}

TEST(MemoryBound, HpListPendingStaysWithinTheorem1Bound) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kSlots = 8;   // H
  constexpr unsigned kScan = 64;   // R
  const std::int64_t bound = kSlots * kThreads + kThreads * kScan;
  const std::int64_t peak = churn_pending<HpDomain, HarrisList<Key, Val, HpDomain>>(
      kThreads, test::scaled_iters(60000), 64);
  EXPECT_LE(peak, 2 * bound) << "peak pending exceeded the H*N + N*R bound "
                                "(x2 slack for sampling jitter)";
}

TEST(MemoryBound, HpTreePendingStaysWithinTheorem1Bound) {
  constexpr unsigned kThreads = 4;
  const std::int64_t bound = 8 * kThreads + kThreads * 64;
  const std::int64_t peak =
      churn_pending<HpDomain, NatarajanMittalTree<Key, Val, HpDomain>>(
          kThreads, test::scaled_iters(60000), 64);
  EXPECT_LE(peak, 2 * bound);
}

// Median peak over `runs` independent mini-runs; the garbage-count
// comparison below is statistical, and a single shrunk run is too noisy.
template <class Smr, class DS>
std::int64_t median_peak(unsigned threads, int iters, Key range, int runs) {
  std::vector<std::int64_t> peaks;
  peaks.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i)
    peaks.push_back(churn_pending<Smr, DS>(threads, iters, range));
  std::sort(peaks.begin(), peaks.end());
  return peaks[peaks.size() / 2];
}

TEST(MemoryBound, EbrKeepsMoreGarbageThanHpUnderSameChurn) {
  // The paper's Figure 10 ordering: HP lowest, EBR highest.  On 2 cores the
  // gap is narrower but the ordering is stable — at full iterations.  At the
  // default 10x smoke shrink a single run flaked ~1 in 5, so smoke mode
  // shrinks this test less (4x) and compares medians of 3 mini-runs; the
  // full-scale run stays a single comparison.
  const bool smoke = test::smoke_mode();
  const int iters = smoke ? test::scaled_iters(60000, /*divisor=*/4) : 60000;
  const int runs = smoke ? 3 : 1;
  const std::int64_t hp_peak =
      median_peak<HpDomain, HarrisList<Key, Val, HpDomain>>(4, iters, 64, runs);
  const std::int64_t ebr_peak =
      median_peak<EbrDomain, HarrisList<Key, Val, EbrDomain>>(4, iters, 64,
                                                              runs);
  EXPECT_GE(ebr_peak, hp_peak)
      << "EBR should never keep less garbage than HP under equal churn";
}

TEST(MemoryBound, StalledTraverserDoesNotUnboundHpMemory) {
  // A thread parked mid-operation (holding hazard pointers over a marked
  // chain) must not prevent HP from reclaiming unrelated churn.
  auto cfg = test::small_config(3);
  cfg.scan_threshold = 64;
  HpDomain smr(cfg);
  HarrisList<Key, Val, HpDomain> list(smr);
  auto sh0 = scoped_handle(smr);
  auto& h0 = *sh0;
  for (Key k = 0; k < 32; ++k) ASSERT_TRUE(list.insert(h0, k, k));
  // Simulate the stalled traverser: protections held, op never ends.  An
  // explicit join(): the handle stays claimed across the whole churn.
  auto& stalled = smr.join();
  stalled.begin_op();
  std::atomic<marked_ptr<ListNode<Key, Val>>>* fake = nullptr;
  (void)fake;
  // (Holding live protections is exercised via the SMR-layer robustness
  // tests; here the stalled thread simply keeps its op open.)
  test::run_threads(2, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid);
    const int iters = test::scaled_iters(40000);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(64);
      if (rng.next_in(2)) {
        list.insert(h, k, k);
      } else {
        list.erase(h, k);
      }
    }
  });
  EXPECT_LT(smr.pending_nodes(), 1024)
      << "HP must stay bounded with a stalled participant";
  stalled.end_op();
  smr.leave(stalled);
}

TEST(MemoryBound, PendingDrainsToNearZeroAtQuiescence) {
  auto cfg = test::small_config(4);
  cfg.scan_threshold = 16;
  HpDomain smr(cfg);
  {
    HarrisList<Key, Val, HpDomain> list(smr);
    test::run_threads(4, [&](unsigned tid) {
      auto sh = scoped_handle(smr);
      auto& h = *sh;
      Xoshiro256 rng(tid);
      const int iters = test::scaled_iters(20000);
      for (int i = 0; i < iters; ++i) {
        const Key k = rng.next_in(64);
        if (rng.next_in(2)) {
          list.insert(h, k, k);
        } else {
          list.erase(h, k);
        }
      }
    });
    // The workers scanned on leave() and orphaned what other workers still
    // protected; adopt that residue into one handle and force it through a
    // scan now that everyone is quiescent.
    auto sh = scoped_handle(smr);
    sh->bg_collect();
    sh->scan();
    EXPECT_LT(smr.pending_nodes(), 4 * 16 + 64);
  }
}

}  // namespace
}  // namespace scot
