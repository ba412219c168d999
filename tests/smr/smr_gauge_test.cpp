// The retire/free books behind pending_nodes() and the stats() totals
// (DomainCore::counters(), DESIGN.md §8): per-handle counts summed over the
// registry.  Once threads are quiescent the sums must be exact for every
// scheme, whichever thread retired a node and whichever freed it: Hyaline
// batches freed by another thread, a leaver's limbo adopted by another
// thread, the background reclaimer, and domain teardown.  The books do not
// depend on SCOT_STATS, so nothing here skips when it is off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

// Runs the teardown drain early, from a derived destructor, and records the
// books after it (the scheme's own destructor then finds nothing to free).
struct TeardownBooks {
  SmrCounters counters;
  std::uint64_t pool_frees = 0;
};

template <class Smr>
struct TeardownProbe : Smr {
  TeardownProbe(const SmrConfig& cfg, TeardownBooks* out)
      : Smr(cfg), out_(out) {}
  ~TeardownProbe() {
    this->shutdown();
    out_->counters = this->counters();
    out_->pool_frees = this->pool().total_freed();
  }
  TeardownBooks* out_;
};

template <class Smr>
constexpr bool kReclaims = !std::is_same_v<Smr, NoReclaimDomain>;

// Exactness in quiescence, against two independent witnesses: the number
// of retire() calls the test made, and the pool's own free count (these
// tests never call dealloc_unpublished, so every pool free is a reclaim).
template <class Smr>
void expect_exact_books(Smr& smr, std::uint64_t retires) {
  const SmrCounters c = smr.counters();
  EXPECT_EQ(c.retired, retires);
  EXPECT_EQ(c.reclaimed, smr.pool().total_freed());
  EXPECT_EQ(c.pending, static_cast<std::int64_t>(c.retired - c.reclaimed));
  EXPECT_EQ(smr.pending_nodes(), c.pending);
  if constexpr (!kReclaims<Smr>) {
    EXPECT_EQ(c.reclaimed, 0u);
  }
  const obs::StatsSnapshot s = smr.stats();
  EXPECT_EQ(s.retired_total, c.retired);
  EXPECT_EQ(s.reclaimed_total, c.reclaimed);
  EXPECT_EQ(s.pending, c.pending);
  if (s.enabled) {
    // The obs counts are the same books (no teardown has run yet).
    EXPECT_EQ(s.retires, c.retired);
    EXPECT_EQ(s.nodes_reclaimed, c.reclaimed);
  }
}

template <class Smr>
void expect_teardown_balances(const TeardownBooks& b, std::uint64_t retires) {
  EXPECT_EQ(b.counters.retired, retires);
  EXPECT_EQ(b.counters.reclaimed, b.pool_frees);
  if constexpr (kReclaims<Smr>) {
    EXPECT_EQ(b.counters.pending, 0) << "teardown must free every retire";
    EXPECT_EQ(b.counters.reclaimed, retires);
  } else {
    EXPECT_EQ(b.counters.pending, static_cast<std::int64_t>(retires));
  }
}

template <class Smr>
class SmrGaugeTest : public ::testing::Test {};

TYPED_TEST_SUITE(SmrGaugeTest, test::AllSchemes);

// A writer retires a node a reader still protects and leaves: its limbo (or
// Hyaline's open batch) is orphaned, and a later thread adopts and frees
// it.  Teardown then finds only what the last leaver could not free.
TYPED_TEST(SmrGaugeTest, OrphanedLimboAdoptedByAnotherThread) {
  constexpr int kChurn = 40;
  constexpr std::uint64_t kAdopterChurn = 64;
  TeardownBooks at_teardown;
  {
    TeardownProbe<TypeParam> probe(test::small_config(3), &at_teardown);
    TypeParam& smr = probe;
    auto reader = scoped_handle(smr);
    std::atomic<ReclaimNode*> src{
        reader->template alloc<TestNode>(std::uint64_t{1})};
    reader->begin_op();
    (void)reader->protect(src, 0);
    std::thread writer([&] {
      auto w = scoped_handle(smr);
      test::churn_retire(w.get(), kChurn);
      w->retire(src.load());
    });
    writer.join();
    const std::uint64_t left_behind = kChurn + 1;
    expect_exact_books(smr, left_behind);
    if constexpr (kReclaims<TypeParam>) {
      EXPECT_GT(smr.pending_nodes(), 0)
          << "the pinned victim must outlive the writer's leave";
    }
    reader->end_op();
    std::thread adopter([&] {
      auto a = scoped_handle(smr);
      test::churn_retire(a.get(), static_cast<int>(kAdopterChurn));
    });
    adopter.join();
    expect_exact_books(smr, left_behind + kAdopterChurn);
    if constexpr (kReclaims<TypeParam> &&
                  !std::is_same_v<TypeParam, HyalineDomain>) {
      // No reservation is left, so the adopter's final scan on leave
      // frees everything it adopted and retired.
      EXPECT_EQ(smr.pending_nodes(), 0);
    }
  }
  expect_teardown_balances<TypeParam>(at_teardown, kChurn + 1 + kAdopterChurn);
}

// Three workers retire while the service thread reclaims; a sampler reads
// the gauge throughout.  Frees are summed before retires, so it must never
// read negative.  Stopping the reclaimer quiesces the domain.
TYPED_TEST(SmrGaugeTest, BackgroundReclaimBooksAreExact) {
  constexpr unsigned kWorkers = 3;
  const int per_worker = test::scaled_iters(4000);
  auto cfg = test::small_config(kWorkers);
  cfg.background_reclaim = true;
  TeardownBooks at_teardown;
  {
    TeardownProbe<TypeParam> probe(cfg, &at_teardown);
    TypeParam& smr = probe;
    std::atomic<bool> done{false};
    std::int64_t lowest = 0;
    std::thread sampler([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::int64_t p = smr.pending_nodes();
        if (p < lowest) lowest = p;
        std::this_thread::yield();
      }
    });
    test::run_threads(kWorkers, [&](unsigned) {
      auto h = scoped_handle(smr);
      test::churn_retire(h.get(), per_worker);
    });
    done.store(true, std::memory_order_release);
    sampler.join();
    EXPECT_EQ(lowest, 0) << "the gauge read negative while workers ran";
    smr.stop_background_reclaimer();
    expect_exact_books(smr, std::uint64_t{kWorkers} * per_worker);
  }
  expect_teardown_balances<TypeParam>(at_teardown,
                                      std::uint64_t{kWorkers} * per_worker);
}

// Retires still parked in a handle's limbo, the orphan mailbox or the
// background mailbox are freed by teardown, which returns pending to 0.
TYPED_TEST(SmrGaugeTest, TeardownReturnsPendingToZero) {
  constexpr int kRetires = 10;  // below every scan/batch threshold
  auto cfg = test::small_config(2);
  cfg.scan_threshold = 1000;
  cfg.batch_capacity = 1000;
  TeardownBooks at_teardown;
  {
    TeardownProbe<TypeParam> probe(cfg, &at_teardown);
    TypeParam& smr = probe;
    std::atomic<ReclaimNode*> src{nullptr};
    auto reader = scoped_handle(smr);
    {
      auto w = scoped_handle(smr);
      auto* victim = w->template alloc<TestNode>(std::uint64_t{0});
      src.store(victim);
      reader->begin_op();
      (void)reader->protect(src, 0);
      w->retire(victim);
      test::churn_retire(w.get(), kRetires - 1);
    }
    reader->end_op();
    expect_exact_books(smr, kRetires);
    if constexpr (kReclaims<TypeParam>) {
      EXPECT_GT(smr.pending_nodes(), 0);
    }
  }
  expect_teardown_balances<TypeParam>(at_teardown, kRetires);
}

TYPED_TEST(SmrGaugeTest, UntrackedDomainKeepsNoBooks) {
  auto cfg = test::small_config(2);
  cfg.track_stats = false;
  TypeParam smr(cfg);
  {
    auto h = scoped_handle(smr);
    test::churn_retire(h.get(), 100);
  }
  const SmrCounters c = smr.counters();
  EXPECT_EQ(c.retired, 0u);
  EXPECT_EQ(c.reclaimed, 0u);
  EXPECT_EQ(smr.pending_nodes(), 0);
}

// Hyaline's "reclamation by any thread": batches one thread retires while
// another's slot is active are freed by that other thread's end_op.
TEST(SmrGauge, HyalineBatchFreedByAnotherThread) {
  auto cfg = test::small_config(2);
  cfg.era_freq = 1u << 30;  // no era tick: the 1S filter never skips a slot
  constexpr std::uint64_t kRetires = 30;  // ten full batches of 3
  TeardownBooks at_teardown;
  {
    TeardownProbe<HyalineDomain> probe(cfg, &at_teardown);
    HyalineDomain& smr = probe;
    ASSERT_EQ(smr.batch_capacity(), 3u);
    std::atomic<int> phase{0};
    const auto wait_for = [&](int p) {
      while (phase.load(std::memory_order_acquire) != p)
        std::this_thread::yield();
    };
    std::thread reader([&] {
      auto r = scoped_handle(smr);
      r->begin_op();
      phase.store(1, std::memory_order_release);
      wait_for(2);
      r->end_op();  // drops the last reference of every batch
      phase.store(3, std::memory_order_release);
      wait_for(4);
    });
    std::thread writer([&] {
      wait_for(1);
      auto w = scoped_handle(smr);
      test::churn_retire(w.get(), static_cast<int>(kRetires));
    });
    writer.join();
    // Every batch is parked on the reader's slot: retired, none freed.
    expect_exact_books(smr, kRetires);
    EXPECT_EQ(smr.counters().reclaimed, 0u);
    phase.store(2, std::memory_order_release);
    wait_for(3);
    expect_exact_books(smr, kRetires);
    EXPECT_EQ(smr.counters().reclaimed, kRetires)
        << "the reader's end_op must have freed every batch";
    phase.store(4, std::memory_order_release);
    reader.join();
  }
  expect_teardown_balances<HyalineDomain>(at_teardown, kRetires);
}

}  // namespace
}  // namespace scot
