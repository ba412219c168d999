// TreiberStack recovery validation through the scot::AnyStack facade, for
// every scheme: LIFO semantics, element conservation under concurrent
// push/pop churn, and the degenerate-shape recovery contract — restart and
// recover coincide at a single anchor, so ds_recoveries stays 0 by
// construction (DESIGN.md §11).  Runs in both fence disciplines via the
// SCOT_ASYM env knob.
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(AnyStack, MakeEnforcesTheContainerKind) {
  EXPECT_TRUE(AnyStack::make(SchemeId::kHE).has_value());
  EXPECT_FALSE(
      AnyStack::make(SchemeId::kHE, StructureId::kMSQueue).has_value())
      << "a queue must not open as a stack";
  EXPECT_FALSE(AnyStack::make(SchemeId::kHE, StructureId::kDeque).has_value());
}

TEST(AnyStack, EverySchemeLifoSingleThreaded) {
  constexpr std::uint64_t kItems = 256;
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto st = AnyStack::make(s, StructureId::kTreiberStack, small_options());
    ASSERT_TRUE(st.has_value());
    auto session = st->session();
    EXPECT_EQ(session.pop(), std::nullopt) << "starts empty";
    for (std::uint64_t i = 0; i < kItems; ++i)
      EXPECT_TRUE(session.push(i * 7));
    EXPECT_EQ(st->size_unsafe(), kItems);
    for (std::uint64_t i = kItems; i-- > 0;) {
      const auto v = session.pop();
      ASSERT_TRUE(v.has_value()) << i;
      EXPECT_EQ(*v, i * 7) << "LIFO order";
    }
    EXPECT_EQ(session.pop(), std::nullopt) << "drained";
    EXPECT_EQ(st->size_unsafe(), 0u);
  }
}

TEST(AnyStack, UnionSurfaceRejectsTheWrongEnds) {
  auto c = AnyContainer::make(SchemeId::kEBR, StructureId::kTreiberStack,
                              small_options());
  ASSERT_TRUE(c.has_value());
  auto session = c->session();
  EXPECT_FALSE(session.push_back(1)) << "stacks only grow at the top";
  EXPECT_TRUE(session.push_front(1));
  EXPECT_EQ(session.pop_back(), std::nullopt)
      << "stacks only shrink at the top";
  EXPECT_EQ(session.pop_front(), 1u);
}

// Mixed push/pop churn: every tagged element is popped or drained exactly
// once, and interleaved pops never invent or lose elements.
TEST(AnyStack, EverySchemeConcurrentConservation) {
  const unsigned kThreads = 4;
  const std::uint64_t kPerThread =
      static_cast<std::uint64_t>(test::scaled_iters(20000));
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto st = AnyStack::make(s, StructureId::kTreiberStack,
                             small_options(kThreads));
    ASSERT_TRUE(st.has_value());
    std::vector<std::vector<std::uint64_t>> popped(kThreads);
    test::run_threads(kThreads, [&](unsigned t) {
      auto session = st->session();
      Xoshiro256 rng(0x5eed + t);
      auto& mine = popped[t];
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(session.push((static_cast<std::uint64_t>(t) << 32) | i));
        if (rng.next() & 1) {
          const auto v = session.pop();
          if (v.has_value()) mine.push_back(*v);
        }
      }
    });
    std::vector<std::uint64_t> all;
    {
      auto session = st->session();
      while (const auto v = session.pop()) all.push_back(*v);
    }
    EXPECT_EQ(st->size_unsafe(), 0u);
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
    // The degenerate-shape contract: a failed pop CAS re-reads the anchor,
    // which *is* the whole traversal — there is no separate recovery path
    // to take, so the recovery counter must stay exactly 0 no matter how
    // contended the run was.
    EXPECT_EQ(st->recoveries(), 0u)
        << "stack recoveries are 0 by construction (DESIGN.md §11)";
  }
}

// Two sessions of one thread are two handles on one shared stack.
TEST(AnyStack, TwoSessionsShareOneStack) {
  auto st = AnyStack::make(SchemeId::kHPopt, StructureId::kTreiberStack,
                           small_options(2));
  ASSERT_TRUE(st.has_value());
  auto s0 = st->session();
  auto s1 = st->session();
  EXPECT_TRUE(s0.push(11));
  EXPECT_TRUE(s1.push(22));
  EXPECT_EQ(s0.pop(), 22u);
  EXPECT_EQ(s1.pop(), 11u);
  EXPECT_EQ(s0.pop(), std::nullopt);
}

TEST(AnyStack, TeardownWithResidentElementsDoesNotLeak) {
  for (SchemeId s : kAllSchemes) {
    SCOPED_TRACE(scheme_name(s));
    auto st = AnyStack::make(s, StructureId::kTreiberStack, small_options());
    ASSERT_TRUE(st.has_value());
    auto session = st->session();
    for (std::uint64_t i = 0; i < 128; ++i) ASSERT_TRUE(session.push(i));
    session.reset();
  }
}

}  // namespace
}  // namespace scot
