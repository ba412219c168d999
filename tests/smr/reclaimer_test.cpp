// Background reclaimer (smr/reclaimer.hpp, DESIGN.md §9): the service
// thread runs from construction to teardown, drains the donated backlog,
// takes every scan (and so every heavy barrier) off the mutators, and
// survives join/retire/leave churn.  The churn test is the TSan witness for
// the doorbell and donate/adopt/round protocol; the drain tests are the
// ASan witness that destroying a domain mid-donation leaks nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "smr/reclaimer.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

SmrConfig bg_config(unsigned threads = 2) {
  SmrConfig cfg = test::small_config(threads);
  cfg.background_reclaim = true;
  return cfg;
}

// Poll until `pred()` holds or ~2s elapse; the reclaimer runs on its own
// schedule, so every cross-thread expectation in this file is eventual.
template <class Pred>
bool eventually(Pred&& pred, int timeout_ms = 2000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// --- ReclaimerThreadBase (scheme-agnostic service thread) -------------------

TEST(ReclaimerThreadBaseTest, DoorbellTriggersRound) {
  ReclaimerThreadBase t;
  std::atomic<int> rounds{0};
  t.start([&] { rounds.fetch_add(1); });
  t.ring();
  EXPECT_TRUE(eventually([&] { return rounds.load() > 0; }));
  t.stop();
}

TEST(ReclaimerThreadBaseTest, StopIsIdempotentAndRingOutlivesThread) {
  ReclaimerThreadBase t;
  t.stop();  // never started: no-op
  t.ring();  // before start: consumed by the first wait, never lost
  std::atomic<int> rounds{0};
  t.start([&] { rounds.fetch_add(1); });
  EXPECT_TRUE(eventually([&] { return rounds.load() > 0; }));
  t.stop();
  t.stop();  // idempotent
  t.ring();  // after stop: safe no-op
}

// --- Domain lifecycle -------------------------------------------------------

template <class Smr>
class ReclaimerTest : public ::testing::Test {};

TYPED_TEST_SUITE(ReclaimerTest, test::ReclaimingSchemes);

// The configured service thread runs from the constructor on, and teardown
// drains whatever it has not reclaimed yet (ASan closes the custody
// argument).
TYPED_TEST(ReclaimerTest, ServiceRunsFromConstructionAndTeardownDrains) {
  SmrConfig cfg = bg_config();
  cfg.track_stats = true;
  TypeParam smr(cfg);
  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), test::scaled_iters(8000));
  }
  if (smr.stats().enabled) {
    EXPECT_TRUE(eventually([&] { return smr.stats().bg_rounds > 0; }));
  }
}

TYPED_TEST(ReclaimerTest, DonatedBatchesAreAdoptedAndReclaimed) {
  TypeParam smr(bg_config());
  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), test::scaled_iters(20000));
  }  // leave() donates the sub-threshold remainder to the mailbox too
  const auto drained = [&] {
    return smr.pending_nodes() <= 16;  // == small_config scan_threshold
  };
  EXPECT_TRUE(eventually(drained)) << "pending=" << smr.pending_nodes();
}

// The acceptance property of the reclaimer: with it on, no mutator scans,
// so none issues a process-wide heavy barrier.  Each mutator's own obs
// cell must read zero for both while the domain aggregate (the service
// thread's cell) shows the work was done.
TYPED_TEST(ReclaimerTest, MutatorsIssueNoHeavyBarriers) {
  SmrConfig cfg = bg_config();
  cfg.track_stats = true;
  TypeParam smr(cfg);
  auto a = scoped_handle(smr);
  auto b = scoped_handle(smr);
  if (a->stats_ == nullptr) {
    GTEST_SKIP() << "built without SCOT_STATS; no obs cells to check";
  }
  test::churn_retire(a.get(), test::scaled_iters(10000));
  test::churn_retire(b.get(), test::scaled_iters(10000));
  ASSERT_TRUE(eventually([&] { return smr.stats().scans > 0; }));
  const auto cell = [](const obs::StatsCell* c, obs::Counter k) {
    return c->counts[static_cast<unsigned>(k)].load();
  };
  for (const obs::StatsCell* c : {a->stats_, b->stats_}) {
    EXPECT_EQ(cell(c, obs::Counter::kScans), 0u);
    EXPECT_EQ(cell(c, obs::Counter::kHeavyBarriers), 0u);
  }
  if (smr.fence_path() != asymfence::Path::kClassic) {
    EXPECT_GT(smr.stats().heavy_barriers, 0u);
  }
}

// TSan witness: mutator threads churn sessions (join / retire past the
// donation threshold / leave) against the running reclaimer.  Exercises
// every cross-thread edge at once — doorbell rings against a sleeping or
// working thread, donations racing the round's take, and leave() donating
// to a mailbox the reclaimer is draining.
TYPED_TEST(ReclaimerTest, JoinRetireLeaveChurnAgainstRunningReclaimer) {
  TypeParam smr(bg_config(4));
  const int sessions = test::scaled_iters(400);
  test::run_threads(3, [&](unsigned) {
    for (int i = 0; i < sessions; ++i) {
      auto h = scoped_handle(smr);
      test::churn_retire(h.get(), 64);
    }
  });
  // Whatever custody state the churn ended in, teardown must drain it.
}

}  // namespace
}  // namespace scot
