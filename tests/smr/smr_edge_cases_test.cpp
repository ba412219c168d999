// Edge cases of the reclamation layer that the main suites do not reach:
// clock monotonicity, reservation-interval widening, slot reuse across
// operations, retire ordering, and adversarial protect/scan interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

TEST(EbrEdge, EpochAdvancesOnlyOnRetireTicks) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 4;
  EbrDomain smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  const std::uint64_t e0 = smr.epoch();
  for (int i = 0; i < 3; ++i) {
    auto* n = h.template alloc<TestNode>(std::uint64_t{0});
    h.retire(n);
  }
  EXPECT_EQ(smr.epoch(), e0) << "below the tick frequency";
  auto* n = h.template alloc<TestNode>(std::uint64_t{0});
  h.retire(n);
  EXPECT_EQ(smr.epoch(), e0 + 1) << "4th retire must tick the epoch";
}

TEST(EbrEdge, MinReservationIgnoresIdleThreads) {
  EbrDomain smr(test::small_config(4));
  auto h = scoped_handle(smr);
  EXPECT_EQ(smr.min_reservation(), EbrDomain::kIdle);
  h->begin_op();
  EXPECT_LT(smr.min_reservation(), EbrDomain::kIdle);
  h->end_op();
  EXPECT_EQ(smr.min_reservation(), EbrDomain::kIdle);
}

TEST(HeEdge, EraClockIsMonotoneUnderConcurrentTicks) {
  auto cfg = test::small_config(4);
  cfg.era_freq = 1;
  HeDomain smr(cfg);
  std::atomic<std::uint64_t> max_seen{0};
  test::run_threads(4, [&](unsigned) {
    auto sh = scoped_handle(smr);
    auto& h = sh.get();
    std::uint64_t last = 0;
    for (int i = 0; i < 5000; ++i) {
      auto* n = h.template alloc<TestNode>(std::uint64_t{0});
      const std::uint64_t era = birth_era_of(n);
      EXPECT_GE(era, last) << "birth eras must be monotone per thread";
      last = era;
      h.retire(n);
    }
    std::uint64_t cur = max_seen.load();
    while (cur < last && !max_seen.compare_exchange_weak(cur, last)) {
    }
  });
  EXPECT_GE(smr.era(), max_seen.load());
}

TEST(HeEdge, SlotReuseAcrossOperationsIsClean) {
  HeDomain smr(test::small_config(2));
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{0});
  std::atomic<ReclaimNode*> src{n};
  for (int op = 0; op < 50; ++op) {
    h.begin_op();
    (void)h.protect(src, op % 8u);  // rotate through every slot
    h.end_op();
  }
  // All slots must be back to idle: a scan sees no reservations.
  std::vector<std::uint64_t> eras;
  smr.collect_eras(eras);
  EXPECT_TRUE(eras.empty()) << "end_op must clear every used slot";
  h.dealloc_unpublished(n);
}

TEST(HpEdge, SlotsClearAfterOp) {
  HpDomain smr(test::small_config(2));
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{0});
  std::atomic<ReclaimNode*> src{n};
  h.begin_op();
  (void)h.protect(src, 0);
  h.dup(0, 3);
  h.end_op();
  std::vector<ReclaimNode*> hazards;
  smr.collect_hazards(hazards);
  EXPECT_TRUE(hazards.empty());
  h.dealloc_unpublished(n);
}

TEST(HpEdge, ProtectTracksSourceChanges) {
  // The validation loop must re-publish when the source field moves.
  HpDomain smr(test::small_config(2));
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  auto* a = h.template alloc<TestNode>(std::uint64_t{1});
  auto* b = h.template alloc<TestNode>(std::uint64_t{2});
  std::atomic<ReclaimNode*> src{a};
  h.begin_op();
  EXPECT_EQ(h.protect(src, 0), a);
  src.store(b);
  EXPECT_EQ(h.protect(src, 1), b);
  // Slot 1 must hold b, not a: the only live handle publishes exactly
  // {a (slot 0), b (slot 1)}.
  std::vector<ReclaimNode*> hazards;
  smr.collect_hazards(hazards);
  EXPECT_EQ(hazards, (std::vector<ReclaimNode*>{a, b}));
  h.end_op();
  h.dealloc_unpublished(a);
  h.dealloc_unpublished(b);
}

TEST(IbrEdge, UpperBoundWidensDuringOperation) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 1;
  IbrDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  auto* n = writer.template alloc<TestNode>(std::uint64_t{0});
  std::atomic<ReclaimNode*> src{n};
  reader.begin_op();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  smr.collect_intervals(iv);
  ASSERT_EQ(iv.size(), 1u);
  const auto before = iv[0];
  EXPECT_EQ(before.first, before.second) << "interval starts degenerate";
  // Advance the era, then protect: upper must chase the clock.
  for (int i = 0; i < 10; ++i)
    writer.dealloc_unpublished(
        writer.template alloc<TestNode>(std::uint64_t{0}));
  (void)reader.protect(src, 0);
  iv.clear();
  smr.collect_intervals(iv);
  ASSERT_GE(iv.size(), 1u);
  EXPECT_EQ(iv[0].first, before.first) << "lower must stay pinned";
  EXPECT_GT(iv[0].second, before.second) << "upper must widen";
  reader.end_op();
  writer.dealloc_unpublished(n);
}

TEST(IbrEdge, DisjointLifetimeReclaimsDespiteActiveReader) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 1;
  cfg.scan_threshold = 4;
  IbrDomain smr(cfg);
  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  reader.begin_op();  // interval [e, e]
  // Nodes born and retired strictly after the reader's interval.
  for (int i = 0; i < 64; ++i) {
    auto* n = writer.template alloc<TestNode>(std::uint64_t{0});
    writer.retire(n);
  }
  EXPECT_GT(smr.counters().reclaimed, 0u)
      << "non-overlapping lifetimes must reclaim";
  reader.end_op();
}

TEST(NrEdge, RetireIsTerminal) {
  NoReclaimDomain smr(test::small_config(1));
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{7});
  h.retire(n);
  EXPECT_EQ(n->debug_state, kNodeRetired);
  EXPECT_EQ(smr.pending_nodes(), 1);
  // NR never reuses the cell.
  auto* m = h.template alloc<TestNode>(std::uint64_t{8});
  EXPECT_NE(static_cast<void*>(n), static_cast<void*>(m));
  EXPECT_EQ(n->payload, 7u) << "leaked node stays intact";
  h.dealloc_unpublished(m);
}

// Sink for the interleaving canary below (volatile keeps the read alive).
volatile std::uint64_t g_canary_payload;

// The scan prefetches recent[0, min(count, kRecent)): every such slot must
// name a node still in the chain, past a wrap and after take() + re-push.
TEST(LimboListEdge, RecentIndexNamesOnlyChainedNodes) {
  constexpr unsigned kCap = LimboList::kRecent;
  std::vector<ReclaimNode> nodes(kCap + kCap / 2);
  LimboList l;
  const auto check = [&l] {
    std::set<const ReclaimNode*> chain;
    for (const ReclaimNode* n = l.head; n != nullptr; n = n->smr_next)
      chain.insert(n);
    ASSERT_EQ(chain.size(), l.count);
    for (unsigned i = 0; i < std::min(l.count, LimboList::kRecent); ++i)
      EXPECT_TRUE(chain.count(l.recent[i])) << "slot " << i;
  };
  for (unsigned i = 0; i < kCap / 2; ++i) l.push(&nodes[i]);
  check();
  for (unsigned i = kCap / 2; i < nodes.size(); ++i) l.push(&nodes[i]);
  check();  // wrapped: the slots hold the last kCap pushes
  ReclaimNode* n = l.take();
  EXPECT_EQ(l.count, 0u);
  for (int kept = 0; n != nullptr && kept < 3; ++kept) {
    ReclaimNode* next = n->smr_next;
    l.push(n);  // a scan re-parks its survivors
    n = next;
  }
  check();
  EXPECT_EQ(l.count, 3u);
}

TEST(SchemeMatrix, ConcurrentProtectScanInterleaving) {
  // Adversarial interleaving: one thread protects/unprotects a hot pointer
  // in a tight loop while another churns retires through scans.  This is a
  // crash/UAF canary for the publication fences; assertions are weak by
  // design (the schedule is nondeterministic).
  auto run = []<class Smr>(std::type_identity<Smr>) {
    auto cfg = test::small_config(2);
    cfg.scan_threshold = 8;
    cfg.era_freq = 2;
    Smr smr(cfg);
    std::atomic<ReclaimNode*> hot{nullptr};
    std::atomic<bool> stop{false};
    test::run_threads(2, [&](unsigned tid) {
      auto sh = scoped_handle(smr);
      auto& h = sh.get();
      if (tid == 0) {
        Xoshiro256 rng(9);
        for (int i = 0; i < 30000; ++i) {
          auto* n = h.template alloc<TestNode>(std::uint64_t(i));
          hot.store(n, std::memory_order_release);
          // Unpublish before retiring so readers only ever see live-or-
          // retired-but-unreclaimed nodes.
          hot.store(nullptr, std::memory_order_release);
          h.retire(n);
        }
        stop.store(true);
      } else {
        while (!stop.load(std::memory_order_relaxed)) {
          h.begin_op();
          ReclaimNode* p = h.protect(hot, 0);
          if (p != nullptr && h.op_valid()) {
            // Touch the payload: UAF here means the scheme is broken.
            g_canary_payload = static_cast<TestNode*>(p)->payload;
          }
          h.end_op();
        }
      }
    });
    SUCCEED();
  };
  run(std::type_identity<EbrDomain>{});
  run(std::type_identity<HpDomain>{});
  run(std::type_identity<HpOptDomain>{});
  run(std::type_identity<HeDomain>{});
  run(std::type_identity<IbrDomain>{});
  run(std::type_identity<HyalineDomain>{});
}

}  // namespace
}  // namespace scot
