// Michael-deque recovery validation through the scot::AnyDeque facade, for
// every scheme: both-ends semantics checked against a sequential model,
// element conservation under mixed-end concurrent churn, and teardown with
// resident elements (including teardown straight after contended runs,
// where the anchor may need the destructor's link fix-up).  The deque's
// recovery escapes are help-stabilize events (DESIGN.md §11).  Runs in both
// fence disciplines via the SCOT_ASYM env knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
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

TEST(AnyDeque, MakeEnforcesTheContainerKind) {
  EXPECT_TRUE(AnyDeque::make(SchemeId::kIBR).has_value());
  EXPECT_FALSE(
      AnyDeque::make(SchemeId::kIBR, StructureId::kMSQueue).has_value())
      << "a queue must not open as a deque";
  EXPECT_FALSE(
      AnyDeque::make(SchemeId::kIBR, StructureId::kTreiberStack).has_value());
}

// Drives the deque and a std::deque through the same pseudo-random sequence
// of end operations and demands identical observable behaviour, per scheme.
TEST(AnyDeque, EverySchemeMatchesASequentialModel) {
  const std::uint64_t kOps =
      static_cast<std::uint64_t>(test::scaled_iters(20000));
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto dq = AnyDeque::make(s, StructureId::kDeque, small_options());
    ASSERT_TRUE(dq.has_value());
    auto session = dq->session();
    std::deque<std::uint64_t> model;
    Xoshiro256 rng(0xdecade);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const std::uint64_t draw = rng.next();
      const bool left = draw & 1;
      // Pop-biased once warm so both the empty and populated paths churn.
      const bool push = model.size() < 4 || (draw & 6) != 0;
      if (push) {
        if (left) {
          ASSERT_TRUE(session.push_left(i));
          model.push_front(i);
        } else {
          ASSERT_TRUE(session.push_right(i));
          model.push_back(i);
        }
      } else if (left) {
        const auto v = session.pop_left();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, model.front());
        model.pop_front();
      } else {
        const auto v = session.pop_right();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, model.back());
        model.pop_back();
      }
    }
    ASSERT_EQ(dq->size_unsafe(), model.size());
    // Drain alternately from both ends against the model.
    bool left = true;
    while (!model.empty()) {
      if (left) {
        const auto v = session.pop_left();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, model.front());
        model.pop_front();
      } else {
        const auto v = session.pop_right();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, model.back());
        model.pop_back();
      }
      left = !left;
    }
    EXPECT_EQ(session.pop_left(), std::nullopt);
    EXPECT_EQ(session.pop_right(), std::nullopt);
    EXPECT_EQ(dq->size_unsafe(), 0u);
  }
}

// A deque used one-sided is a stack at either end.
TEST(AnyDeque, BothEndsBehaveAsStacks) {
  auto dq = AnyDeque::make(SchemeId::kNR, StructureId::kDeque, small_options());
  ASSERT_TRUE(dq.has_value());
  auto session = dq->session();
  for (std::uint64_t i = 0; i < 64; ++i) ASSERT_TRUE(session.push_left(i));
  for (std::uint64_t i = 64; i-- > 0;) EXPECT_EQ(session.pop_left(), i);
  for (std::uint64_t i = 0; i < 64; ++i) ASSERT_TRUE(session.push_right(i));
  for (std::uint64_t i = 64; i-- > 0;) EXPECT_EQ(session.pop_right(), i);
  EXPECT_EQ(dq->size_unsafe(), 0u);
}

// ...and used end-to-end it is a queue, in both directions.
TEST(AnyDeque, EndToEndBehavesAsAQueue) {
  auto dq = AnyDeque::make(SchemeId::kHP, StructureId::kDeque, small_options());
  ASSERT_TRUE(dq.has_value());
  auto session = dq->session();
  for (std::uint64_t i = 0; i < 64; ++i) ASSERT_TRUE(session.push_right(i));
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(session.pop_left(), i);
  for (std::uint64_t i = 0; i < 64; ++i) ASSERT_TRUE(session.push_left(i));
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(session.pop_right(), i);
}

// Mixed-end churn from every thread: each tagged element is popped exactly
// once, none invented, none lost — the anchor-descriptor discipline keeps
// the two ends coherent under every scheme.
TEST(AnyDeque, EverySchemeConcurrentMixedEndConservation) {
  const unsigned kThreads = 4;
  const std::uint64_t kPerThread =
      static_cast<std::uint64_t>(test::scaled_iters(10000));
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto dq =
        AnyDeque::make(s, StructureId::kDeque, small_options(kThreads));
    ASSERT_TRUE(dq.has_value());
    std::vector<std::vector<std::uint64_t>> popped(kThreads);
    test::run_threads(kThreads, [&](unsigned t) {
      auto session = dq->session();
      Xoshiro256 rng(0xd0 + t);
      auto& mine = popped[t];
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t draw = rng.next();
        const bool ok = (draw & 1)
                            ? session.push_left(
                                  (static_cast<std::uint64_t>(t) << 32) | i)
                            : session.push_right(
                                  (static_cast<std::uint64_t>(t) << 32) | i);
        ASSERT_TRUE(ok);
        if (draw & 2) {
          const auto v =
              (draw & 4) ? session.pop_left() : session.pop_right();
          if (v.has_value()) mine.push_back(*v);
        }
      }
    });
    std::vector<std::uint64_t> all;
    {
      auto session = dq->session();
      while (const auto v = session.pop_left()) all.push_back(*v);
    }
    EXPECT_EQ(dq->size_unsafe(), 0u);
    for (const auto& p : popped) all.insert(all.end(), p.begin(), p.end());
    ASSERT_EQ(all.size(), kThreads * kPerThread);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << "duplicate element popped";
    for (unsigned t = 0; t < kThreads; ++t) {
      EXPECT_EQ(all[t * kPerThread], static_cast<std::uint64_t>(t) << 32);
      EXPECT_EQ(all[(t + 1) * kPerThread - 1],
                (static_cast<std::uint64_t>(t) << 32) | (kPerThread - 1));
    }
    // Shape contract (DESIGN.md §11): deque escapes are help-stabilize
    // events.  Cumulative and contention-dependent, so just exercised here;
    // values land in the bench tables.
    (void)dq->restarts();
    (void)dq->recoveries();
  }
}

// Two sessions of one thread are two handles on one shared deque.
TEST(AnyDeque, TwoSessionsShareOneDeque) {
  auto dq = AnyDeque::make(SchemeId::kHE, StructureId::kDeque,
                           small_options(2));
  ASSERT_TRUE(dq.has_value());
  auto s0 = dq->session();
  auto s1 = dq->session();
  EXPECT_TRUE(s0.push_left(11));
  EXPECT_TRUE(s1.push_right(22));
  EXPECT_EQ(s0.pop_right(), 22u);
  EXPECT_EQ(s1.pop_right(), 11u);
  EXPECT_EQ(s0.pop_left(), std::nullopt);
}

// Destruction with elements resident — and, in the concurrent variant,
// straight after contended mixed-end churn, so a push-status anchor left by
// a preempted helper exercises the destructor's link fix-up path.
TEST(AnyDeque, TeardownWithResidentElementsDoesNotLeak) {
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto dq = AnyDeque::make(s, StructureId::kDeque, small_options());
    ASSERT_TRUE(dq.has_value());
    auto session = dq->session();
    for (std::uint64_t i = 0; i < 128; ++i) {
      ASSERT_TRUE((i & 1) ? session.push_left(i) : session.push_right(i));
    }
    session.reset();  // leave before the deque is destroyed
  }
}

TEST(AnyDeque, TeardownAfterContendedChurnDoesNotLeak) {
  const unsigned kThreads = 4;
  const std::uint64_t kPerThread =
      static_cast<std::uint64_t>(test::scaled_iters(4000));
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto dq =
        AnyDeque::make(s, StructureId::kDeque, small_options(kThreads));
    ASSERT_TRUE(dq.has_value());
    test::run_threads(kThreads, [&](unsigned t) {
      auto session = dq->session();
      Xoshiro256 rng(0xfeed + t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t draw = rng.next();
        if (draw & 1) {
          ASSERT_TRUE(session.push_left(draw));
        } else {
          ASSERT_TRUE(session.push_right(draw));
        }
        if (draw & 2) {
          if (draw & 4) {
            session.pop_left();
          } else {
            session.pop_right();
          }
        }
      }
    });
    // Destroy with whatever is resident; ASan is the witness.
  }
}

}  // namespace
}  // namespace scot
