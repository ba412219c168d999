// MSQueue recovery validation through the scot::AnyQueue facade, for every
// scheme: FIFO semantics, per-producer order under concurrency (the
// queue-shaped linearizability witness), element conservation, and the
// per-shape recovery-counter contract (DESIGN.md §11).  Runs in both fence
// disciplines via the SCOT_ASYM env knob — no test code changes needed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/any_container.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

AnyContainerOptions small_options(unsigned threads = 4) {
  AnyContainerOptions options;
  options.smr = test::small_config(threads);
  return options;
}

TEST(AnyQueue, MakeEnforcesTheContainerKind) {
  EXPECT_TRUE(AnyQueue::make(SchemeId::kHP).has_value());
  EXPECT_FALSE(
      AnyQueue::make(SchemeId::kHP, StructureId::kTreiberStack).has_value())
      << "a stack must not open as a queue";
  EXPECT_FALSE(AnyQueue::make(SchemeId::kHP, StructureId::kDeque).has_value());
}

TEST(AnyQueue, ReportsItsIdentity) {
  auto q = AnyQueue::make(SchemeId::kHLN, StructureId::kMSQueue,
                          small_options());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->container().scheme(), SchemeId::kHLN);
  EXPECT_EQ(q->container().structure(), StructureId::kMSQueue);
  EXPECT_EQ(q->container().kind(), ContainerKind::kQueue);
  EXPECT_STREQ(q->container().structure_name(), "MSQueue");
}

TEST(AnyQueue, EverySchemeFifoSingleThreaded) {
  constexpr std::uint64_t kItems = 256;
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto q = AnyQueue::make(s, StructureId::kMSQueue, small_options());
    ASSERT_TRUE(q.has_value());
    auto session = q->session();
    EXPECT_EQ(session.dequeue(), std::nullopt) << "starts empty";
    for (std::uint64_t i = 0; i < kItems; ++i)
      EXPECT_TRUE(session.enqueue(i * 3));
    EXPECT_EQ(q->size_unsafe(), kItems);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      const auto v = session.dequeue();
      ASSERT_TRUE(v.has_value()) << i;
      EXPECT_EQ(*v, i * 3) << "FIFO order";
    }
    EXPECT_EQ(session.dequeue(), std::nullopt) << "drained";
    EXPECT_EQ(q->size_unsafe(), 0u);
  }
}

TEST(AnyQueue, UnionSurfaceRejectsTheWrongEnds) {
  auto c = AnyContainer::make(SchemeId::kEBR, StructureId::kMSQueue,
                              small_options());
  ASSERT_TRUE(c.has_value());
  auto session = c->session();
  EXPECT_FALSE(session.push_front(1)) << "queues only grow at the back";
  EXPECT_TRUE(session.push_back(1));
  EXPECT_EQ(session.pop_back(), std::nullopt)
      << "queues only shrink at the front";
  EXPECT_EQ(session.pop_front(), 1u);
}

// Producers/consumers: per-producer FIFO order is preserved and every
// element is popped or drained exactly once — under every scheme, with the
// recovery discipline doing real work (head/tail contention).
TEST(AnyQueue, EverySchemeConcurrentConservationAndOrder) {
  const unsigned kProducers = 2, kConsumers = 2;
  const std::uint64_t kPerProducer =
      static_cast<std::uint64_t>(test::scaled_iters(20000));
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto q = AnyQueue::make(s, StructureId::kMSQueue,
                            small_options(kProducers + kConsumers));
    ASSERT_TRUE(q.has_value());
    std::atomic<unsigned> producers_left{kProducers};
    std::vector<std::vector<std::uint64_t>> popped(kConsumers);
    test::run_threads(kProducers + kConsumers, [&](unsigned t) {
      auto session = q->session();
      if (t < kProducers) {
        for (std::uint64_t i = 0; i < kPerProducer; ++i)
          ASSERT_TRUE(session.enqueue((static_cast<std::uint64_t>(t) << 32) | i));
        producers_left.fetch_sub(1, std::memory_order_release);
      } else {
        auto& mine = popped[t - kProducers];
        mine.reserve(kPerProducer);
        for (;;) {
          const auto v = session.dequeue();
          if (v.has_value()) {
            mine.push_back(*v);
          } else if (producers_left.load(std::memory_order_acquire) == 0) {
            // One more look after the last producer finished: its elements
            // were linked before the flag flipped.
            const auto last = session.dequeue();
            if (!last.has_value()) break;
            mine.push_back(*last);
          }
        }
      }
    });
    // Drain the remainder single-threaded.
    std::vector<std::uint64_t> drained;
    {
      auto session = q->session();
      while (const auto v = session.dequeue()) drained.push_back(*v);
    }
    // Conservation: every tagged element exactly once.
    std::vector<std::uint64_t> all = drained;
    for (const auto& p : popped) all.insert(all.end(), p.begin(), p.end());
    ASSERT_EQ(all.size(), kProducers * kPerProducer);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << "duplicate element popped";
    for (unsigned t = 0; t < kProducers; ++t) {
      EXPECT_EQ(all[t * kPerProducer], static_cast<std::uint64_t>(t) << 32);
      EXPECT_EQ(all[(t + 1) * kPerProducer - 1],
                (static_cast<std::uint64_t>(t) << 32) | (kPerProducer - 1));
    }
    // Per-consumer streams must see each producer's elements in FIFO order.
    for (const auto& p : popped) {
      std::vector<std::uint64_t> last_seq(kProducers, 0);
      std::vector<bool> seen(kProducers, false);
      for (const std::uint64_t v : p) {
        const auto prod = static_cast<unsigned>(v >> 32);
        const std::uint64_t seq = v & 0xffffffffu;
        ASSERT_LT(prod, kProducers);
        if (seen[prod]) {
          EXPECT_GT(seq, last_seq[prod]) << "per-producer FIFO violated";
        }
        seen[prod] = true;
        last_seq[prod] = seq;
      }
    }
    EXPECT_EQ(q->size_unsafe(), 0u);
    // The recovery contract is shape-specific (DESIGN.md §11): the queue's
    // escapes are help-swing-tail events.  Counters are cumulative and
    // contention-dependent, so only their readability is asserted here;
    // values land in the bench tables.
    (void)q->restarts();
    (void)q->recoveries();
  }
}

// Two sessions of one thread are two handles on one shared queue.
TEST(AnyQueue, TwoSessionsShareOneQueue) {
  auto q = AnyQueue::make(SchemeId::kIBR, StructureId::kMSQueue,
                          small_options(2));
  ASSERT_TRUE(q.has_value());
  auto s0 = q->session();
  auto s1 = q->session();
  EXPECT_TRUE(s0.enqueue(11));
  EXPECT_TRUE(s1.enqueue(22));
  EXPECT_EQ(s0.dequeue(), 11u);
  EXPECT_EQ(s1.dequeue(), 22u);
  EXPECT_EQ(s0.dequeue(), std::nullopt);
}

// Destruction with elements still linked must release every node through
// the domain (the ASan lane is the witness).
TEST(AnyQueue, TeardownWithResidentElementsDoesNotLeak) {
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto q = AnyQueue::make(s, StructureId::kMSQueue, small_options());
    ASSERT_TRUE(q.has_value());
    auto session = q->session();
    for (std::uint64_t i = 0; i < 128; ++i) ASSERT_TRUE(session.enqueue(i));
    session.reset();  // leave before the queue is destroyed
  }
}

}  // namespace
}  // namespace scot
