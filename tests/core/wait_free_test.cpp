// Wait-free traversal protocol tests (paper §3.4, Figure 7): the help
// registry's tag algebra (Lemma 5 uniqueness), the round-robin helper scan
// (Lemma 4), and end-to-end wait-free Search on the SCOT list.
#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;
using Registry = WfHelpRegistry<Key>;

TEST(WfRegistry, TagEncoding) {
  EXPECT_TRUE(Registry::is_input(Registry::input_tag(0)));
  EXPECT_TRUE(Registry::is_input(Registry::input_tag(12345)));
  EXPECT_FALSE(Registry::is_input(Registry::output_tag(true)));
  EXPECT_FALSE(Registry::is_input(Registry::output_tag(false)));
  EXPECT_TRUE(Registry::output_value(Registry::output_tag(true)));
  EXPECT_FALSE(Registry::output_value(Registry::output_tag(false)));
  EXPECT_NE(Registry::input_tag(1), Registry::input_tag(2))
      << "versions must produce distinct tags";
}

TEST(WfRegistry, RequestThenPollStatus) {
  Registry reg(2);
  const std::uint64_t tag = reg.request_help(0, 42);
  EXPECT_EQ(reg.poll_status(0, tag), WfPoll::kContinue);
  // Publishing flips the status to done for everyone polling this tag.
  EXPECT_TRUE(reg.publish_result(0, tag, true));
  EXPECT_EQ(reg.poll_status(0, tag), WfPoll::kDoneTrue);
}

TEST(WfRegistry, PublishIsUniquePerTag) {
  // Lemma 5: at most one output per tag version; late publishers observe
  // the winner's result.
  Registry reg(2);
  const std::uint64_t tag = reg.request_help(0, 7);
  EXPECT_FALSE(reg.publish_result(0, tag, false));  // winner publishes false
  EXPECT_FALSE(reg.publish_result(0, tag, true))
      << "loser must adopt the already-published result, not its own";
  EXPECT_EQ(reg.poll_status(0, tag), WfPoll::kDoneFalse);
}

TEST(WfRegistry, StaleHelperSeesNewerInputAsStale) {
  Registry reg(2);
  const std::uint64_t tag1 = reg.request_help(0, 7);
  ASSERT_TRUE(reg.publish_result(0, tag1, true));
  const std::uint64_t tag2 = reg.request_help(0, 8);  // new cycle
  EXPECT_NE(tag1, tag2);
  EXPECT_EQ(reg.poll_status(0, tag1), WfPoll::kStale)
      << "a helper holding the old tag must abandon, not publish";
  EXPECT_EQ(reg.poll_status(0, tag2), WfPoll::kContinue);
}

TEST(WfRegistry, StalePublishCannotClobberNewCycle) {
  Registry reg(2);
  const std::uint64_t tag1 = reg.request_help(0, 7);
  ASSERT_TRUE(reg.publish_result(0, tag1, true));
  const std::uint64_t tag2 = reg.request_help(0, 8);
  // A very late helper from cycle 1 tries to publish: CAS must fail and the
  // new cycle's input tag must survive.
  (void)reg.publish_result(0, tag1, false);
  EXPECT_EQ(reg.poll_status(0, tag2), WfPoll::kContinue)
      << "cycle 2 must still be awaiting its result";
}

TEST(WfRegistry, PollForWorkRotatesAndHonorsDelay) {
  Registry reg(3);
  const std::uint64_t tag = reg.request_help(1, 99);
  Key key = 0;
  std::uint64_t got_tag = 0;
  unsigned tid = 0;
  int found = 0;
  // kDelay amortization: at most one hit per kDelay polls; the round-robin
  // cursor must still find thread 1's request within a few cycles.
  for (int i = 0; i < Registry::kDelay * 6; ++i) {
    if (reg.poll_for_work(0, &key, &got_tag, &tid)) {
      ++found;
      EXPECT_EQ(tid, 1u);
      EXPECT_EQ(key, 99u);
      EXPECT_EQ(got_tag, tag);
    }
  }
  EXPECT_GE(found, 1) << "helper never discovered the pending request";
  EXPECT_LE(found, 6);
}

TEST(WfRegistry, PollForWorkSkipsSelfAndIdle) {
  Registry reg(2);
  Key key = 0;
  std::uint64_t tag = 0;
  unsigned tid = 0;
  for (int i = 0; i < Registry::kDelay * 4; ++i) {
    EXPECT_FALSE(reg.poll_for_work(0, &key, &tag, &tid))
        << "no one requested help";
  }
}

// --- end-to-end: wait-free Search on the SCOT list ------------------------

template <class Smr>
class WaitFreeListTest : public ::testing::Test {};

TYPED_TEST_SUITE(WaitFreeListTest, test::AllSchemes);

// Traits that force the slow path almost immediately, so the helping
// machinery is exercised even on short tests.
struct EagerHelpTraits : HarrisListTraits {
  static constexpr bool kWaitFree = true;
  static constexpr int kFastPathRestarts = 1;
};

TYPED_TEST(WaitFreeListTest, SemanticsMatchLockFreeVariant) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam, HarrisListWaitFreeTraits> list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < 50; ++k) ASSERT_TRUE(list.insert(h, k, k));
  for (Key k = 0; k < 50; ++k) EXPECT_TRUE(list.contains(h, k));
  for (Key k = 0; k < 50; k += 2) ASSERT_TRUE(list.erase(h, k));
  for (Key k = 0; k < 50; ++k) EXPECT_EQ(list.contains(h, k), k % 2 == 1);
}

TYPED_TEST(WaitFreeListTest, SearchStaysCorrectUnderPruningChurn) {
  TypeParam smr(test::small_config(4));
  HarrisList<Key, Val, TypeParam, EagerHelpTraits> list(smr);
  // Stable keys readers assert on; volatile keys the writers churn.
  for (Key k = 0; k < 128; k += 2)
    ASSERT_TRUE(list.insert(*scoped_handle(smr), k, k));
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  test::run_threads(4, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid + 17);
    if (tid < 2) {  // writers: churn odd keys, keep even keys untouched
      for (int i = 0; i < 30000; ++i) {
        const Key k = rng.next_in(64) * 2 + 1;
        if (rng.next_in(2)) {
          list.insert(h, k, k);
        } else {
          list.erase(h, k);
        }
      }
      stop.store(true);
    } else {  // readers: wait-free searches on stable keys
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = rng.next_in(64) * 2;
        if (!list.contains(h, k)) errors.fetch_add(1);
        if (list.contains(h, 1001)) errors.fetch_add(1);  // never inserted
      }
    }
  });
  EXPECT_EQ(errors.load(), 0);
}

TYPED_TEST(WaitFreeListTest, HelpersResolveARequestedSearch) {
  // Drive the protocol pieces by hand: a "stuck" searcher posts a request;
  // a writer's update loop (which calls Help_Threads internally) must
  // eventually publish the answer even though the requester never traverses.
  TypeParam smr(test::small_config(2));
  HarrisList<Key, Val, TypeParam, EagerHelpTraits> list(smr);
  auto requester_sh = scoped_handle(smr);
  auto& requester = *requester_sh;
  auto writer_sh = scoped_handle(smr);
  auto& writer = *writer_sh;
  ASSERT_TRUE(list.insert(writer, 77, 1));
  // Reach inside: post the help request exactly like the slow path does.
  auto& reg = list.debug_wf_registry();
  const std::uint64_t tag = reg.request_help(requester.tid(), 77);
  // Writer churns; its insert/erase calls poll for help every kDelay ops.
  for (int i = 0; i < 64 * Registry::kDelay &&
                  reg.poll_status(0, tag) == WfPoll::kContinue;
       ++i) {
    list.insert(writer, 1000 + (i % 8), 0);
    list.erase(writer, 1000 + (i % 8));
  }
  EXPECT_EQ(reg.poll_status(0, tag), WfPoll::kDoneTrue)
      << "updaters must have helped and published 'found'";
}

}  // namespace
}  // namespace scot
