// Lifecycle tests shared by all seven reclamation schemes (typed suite):
// allocation, retirement, the pending gauge, and domain teardown.
#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

template <class Smr>
class SmrBasicTest : public ::testing::Test {};

TYPED_TEST_SUITE(SmrBasicTest, test::AllSchemes);

TYPED_TEST(SmrBasicTest, NamesAndFlagsArePopulated) {
  EXPECT_NE(TypeParam::kName, nullptr);
  EXPECT_GT(std::string(TypeParam::kName).size(), 0u);
}

TYPED_TEST(SmrBasicTest, AllocConstructsAndStampsMetadata) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{77});
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->payload, 77u);
  EXPECT_EQ(n->alloc_size, sizeof(TestNode));
  EXPECT_EQ(n->debug_state, kNodeLive);
  h.dealloc_unpublished(n);
}

TYPED_TEST(SmrBasicTest, DeallocUnpublishedRecyclesWithoutRetire) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* a = h.template alloc<TestNode>(std::uint64_t{1});
  h.dealloc_unpublished(a);
  EXPECT_EQ(smr.pending_nodes(), 0) << "unpublished nodes never hit limbo";
  auto* b = h.template alloc<TestNode>(std::uint64_t{2});
  EXPECT_EQ(static_cast<void*>(a), static_cast<void*>(b))
      << "pool should recycle the cell immediately";
  h.dealloc_unpublished(b);
}

TYPED_TEST(SmrBasicTest, RetireRaisesPendingGauge) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<TestNode>(std::uint64_t{0});
  h.retire(n);
  EXPECT_GE(smr.pending_nodes(), 1);
  EXPECT_GE(smr.counters().retired.load(), 1u);
}

TYPED_TEST(SmrBasicTest, QuiescentChurnEventuallyReclaims) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  // No operation is in flight, so every scheme except NR must be able to
  // recycle retired nodes once scan thresholds are crossed.
  test::churn_retire(h, 2000);
  if constexpr (std::is_same_v<TypeParam, NoReclaimDomain>) {
    EXPECT_EQ(smr.pending_nodes(), 2000);
  } else {
    EXPECT_LT(smr.pending_nodes(), 2000)
        << "reclaiming scheme never freed anything";
    EXPECT_GT(smr.counters().reclaimed.load(), 0u);
  }
}

TYPED_TEST(SmrBasicTest, PendingGaugeBalancesRetiresAndFrees) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  test::churn_retire(h, 500);
  const auto retired = smr.counters().retired.load();
  const auto reclaimed = smr.counters().reclaimed.load();
  EXPECT_EQ(smr.pending_nodes(),
            static_cast<std::int64_t>(retired - reclaimed));
}

TYPED_TEST(SmrBasicTest, BeginEndOpAreReentrantAcrossOperations) {
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  for (int i = 0; i < 100; ++i) {
    h.begin_op();
    h.revalidate_op();
    EXPECT_TRUE(h.op_valid());
    h.end_op();
  }
}

TYPED_TEST(SmrBasicTest, HandlesAreDistinctPerJoin) {
  TypeParam smr(test::small_config(4));
  auto a = scoped_handle(smr);
  auto b = scoped_handle(smr);
  EXPECT_NE(&*a, &*b);
}

TYPED_TEST(SmrBasicTest, TrackStatsOffSilencesGauge) {
  auto cfg = test::small_config();
  cfg.track_stats = false;
  TypeParam smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  test::churn_retire(h, 100);
  EXPECT_EQ(smr.counters().retired.load(), 0u);
}

TYPED_TEST(SmrBasicTest, DomainTeardownFreesLimbo) {
  // Covered implicitly by ASAN-less leak hygiene: this simply exercises the
  // destructor path with a populated limbo list / open batch.
  TypeParam smr(test::small_config());
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  for (int i = 0; i < 7; ++i) {
    auto* n = h.template alloc<TestNode>(std::uint64_t{1});
    h.retire(n);
  }
  // Destructor runs at scope exit; nothing to assert beyond "no crash".
}

TYPED_TEST(SmrBasicTest, ConcurrentAllocRetireIsCoherent) {
  TypeParam smr(test::small_config(4));
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = sh.get();
    for (int i = 0; i < 5000; ++i) {
      h.begin_op();
      auto* n = h.template alloc<TestNode>(std::uint64_t{tid});
      h.retire(n);
      h.end_op();
    }
  });
  const auto retired = smr.counters().retired.load();
  const auto reclaimed = smr.counters().reclaimed.load();
  EXPECT_EQ(retired, 20000u);
  EXPECT_LE(reclaimed, retired);
  EXPECT_EQ(smr.pending_nodes(),
            static_cast<std::int64_t>(retired - reclaimed));
}

}  // namespace
}  // namespace scot
