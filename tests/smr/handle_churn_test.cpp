// Dynamic handle lifecycle: join/leave churn against every scheme.
//
// What this suite pins down (DESIGN.md §7):
//  * join()/leave() recycle registry records — waves of short-lived threads
//    do not grow the registry past the peak concurrency (no slot leak);
//  * active_handles() returns to baseline once every wave has left;
//  * a departing thread's unreclaimed retires are donated and adopted: they
//    stay accounted in pending_nodes() and are eventually freed by a
//    surviving thread's scans (bounded pending, no lost nodes — a dropped
//    node would additionally be reported by ASan/LSan at domain teardown);
//  * the thread-local re-join fast path keeps a single-thread join/leave
//    loop on one record;
//  * explicitly joined handles and dynamic sessions compose on one domain.
//
// The AnyMap section drives the same lifecycle through the type-erased
// Session surface with (scaled) thousands of short-lived threads per scheme.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/any_map.hpp"
#include "tests/test_util.hpp"

namespace scot::test {
namespace {

template <class Smr>
class HandleChurnTest : public ::testing::Test {};
TYPED_TEST_SUITE(HandleChurnTest, AllSchemes);

template <class Smr>
class ReclaimingChurnTest : public ::testing::Test {};
TYPED_TEST_SUITE(ReclaimingChurnTest, ReclaimingSchemes);

constexpr bool is_nr(const char* name) {
  return name[0] == 'N' && name[1] == 'R';
}

// Waves of short-lived threads join, churn, and leave.  The registry must
// recycle records: the high-water record count is bounded by the peak
// concurrency, and the active gauge returns to zero after every wave.
TYPED_TEST(HandleChurnTest, WavesRecycleRecords) {
  using Smr = TypeParam;
  constexpr unsigned kThreads = 8;
  const int waves = scaled_iters(60);
  Smr dom(small_config(kThreads));

  for (int w = 0; w < waves; ++w) {
    run_threads(kThreads, [&](unsigned) {
      auto h = scoped_handle(dom);
      h->begin_op();
      h->end_op();
      // NR never reclaims; keep its churn tiny so the test stays cheap.
      churn_retire(*h, is_nr(Smr::kName) ? 4 : 64);
    });
    ASSERT_EQ(dom.active_handles(), 0u) << "wave " << w;
    ASSERT_LE(dom.total_handle_records(), static_cast<std::size_t>(kThreads))
        << "wave " << w;
  }

  if (!is_nr(Smr::kName)) {
    // Adopt-and-drain: one survivor churns enough for its scans to pick up
    // every orphaned retire; with no active reservations the backlog must
    // settle to a bound that does not scale with the number of waves.
    auto h = scoped_handle(dom);
    churn_retire(*h, 512);
    const auto cfg = dom.config();
    const std::int64_t bound =
        4 * static_cast<std::int64_t>(
                std::max<unsigned>(cfg.scan_threshold, kThreads * 16));
    EXPECT_LE(dom.pending_nodes(), bound);
  }
}

// Single-thread join/leave loop: the thread-local cache must re-claim the
// same record every time — one record total, no list growth.
TYPED_TEST(HandleChurnTest, RejoinFastPathReusesRecord) {
  using Smr = TypeParam;
  Smr dom(small_config(2));
  typename Smr::Handle* first = nullptr;
  for (int i = 0; i < 1000; ++i) {
    auto h = scoped_handle(dom);
    if (first == nullptr) first = &*h;
    EXPECT_EQ(&*h, first);
    EXPECT_EQ(h->tid(), 0u);
  }
  EXPECT_EQ(dom.total_handle_records(), 1u);
  EXPECT_EQ(dom.active_handles(), 0u);
}

// Explicitly joined handles stay claimed until their leave(); sessions
// opened alongside them get fresh records, and the two never hand out the
// same handle at the same time.
TYPED_TEST(HandleChurnTest, JoinedHandlesAndSessionsCompose) {
  using Smr = TypeParam;
  Smr dom(small_config(4));
  auto& pinned0 = dom.join();
  auto& pinned1 = dom.join();
  EXPECT_NE(&pinned0, &pinned1);
  EXPECT_EQ(dom.active_handles(), 2u);

  {
    auto h = scoped_handle(dom);
    EXPECT_NE(&*h, &pinned0);
    EXPECT_NE(&*h, &pinned1);
    EXPECT_EQ(dom.active_handles(), 3u);
  }
  EXPECT_EQ(dom.active_handles(), 2u);
  dom.leave(pinned1);
  dom.leave(pinned0);
  EXPECT_EQ(dom.active_handles(), 0u);
}

// Donation is observable: a reader protecting a node keeps the departing
// thread's final scan from freeing everything, so the leftovers must be
// handed over (still accounted) rather than dropped, and a later retirer
// must adopt and free them once the reader lets go.
TYPED_TEST(ReclaimingChurnTest, LeaveDonatesAndRetirerAdopts) {
  using Smr = TypeParam;
  auto cfg = small_config(4);
  cfg.scan_threshold = 1u << 30;  // no threshold scans: only leave() scans
  Smr dom(cfg);

  auto reader = scoped_handle(dom);
  std::int64_t donated = 0;
  {
    auto worker = scoped_handle(dom);
    reader->begin_op();
    // Pin one of the worker's nodes mid-operation so the worker's exit
    // scan cannot reclaim it (for era schemes the open operation pins the
    // whole batch's lifetime instead of one node).
    auto* node = worker->template alloc<TestNode>(7);
    std::atomic<ReclaimNode*> src{node};
    (void)reader->protect(src, 0u);
    worker->retire(node);
    churn_retire(*worker, 32);
    // worker leaves here: final scan runs under the reader's protection,
    // then donates the leftovers.
    donated = dom.pending_nodes();
  }
  EXPECT_GE(donated, 1) << "leave() lost retires instead of donating";

  reader->end_op();
  // The reader is now also the only retirer; its next retires must adopt
  // the orphans, and with no protections left a scan frees the lot.
  // (Hyaline has no explicit scan — its per-batch handoff already freed
  // everything except the small unsealed remainder.)
  churn_retire(*reader, 64);
  if constexpr (requires { reader->scan(); }) reader->scan();
  EXPECT_LE(dom.pending_nodes(), 16);
}

// Type-erased lifecycle: (scaled) thousands of short-lived threads open
// Sessions against one AnyMap per scheme.  Registry stays at peak-wave
// size, active count returns to the construction-time baseline, pending
// stays bounded.
TEST(AnyMapSessionChurnTest, ThousandsOfSessions) {
  constexpr unsigned kThreads = 8;
  const int waves = scaled_iters(150);  // 150 * 8 = 1200 threads full size
  for (const SchemeId scheme :
       {SchemeId::kNR, SchemeId::kEBR, SchemeId::kHP, SchemeId::kHPopt,
        SchemeId::kHE, SchemeId::kIBR, SchemeId::kHLN}) {
    AnyMapOptions options;
    options.smr = small_config(kThreads);
    auto map = AnyMap::make(scheme, StructureId::kHMList, options);
    ASSERT_TRUE(map.has_value());

    // The structure constructor may pin an anchor handle via the shim.
    const unsigned base_active = map->active_handles();
    const std::size_t base_records = map->total_handle_records();

    for (int w = 0; w < waves; ++w) {
      run_threads(kThreads, [&](unsigned t) {
        auto s = map->session();
        for (std::uint64_t i = 0; i < 50; ++i) {
          const std::uint64_t k = (i * 17 + t) % 256;
          if (i % 3 == 0) {
            s.erase(k);
          } else {
            s.insert(k, k);
          }
          s.contains((k * 5) % 256);
        }
      });
    }

    EXPECT_EQ(map->active_handles(), base_active)
        << scheme_name(scheme) << ": sessions leaked registry slots";
    EXPECT_LE(map->total_handle_records(), base_records + kThreads)
        << scheme_name(scheme) << ": registry grew past peak concurrency";
    if (scheme != SchemeId::kNR) {
      // Bounded garbage across the whole churn: generous static bound,
      // independent of the number of waves.
      EXPECT_LE(map->pending_nodes(), 2048) << scheme_name(scheme);
    }
  }
}

// Sessions are move-only RAII: moving transfers membership, reset leaves
// early and is idempotent.
TEST(AnyMapSessionChurnTest, SessionMoveAndReset) {
  AnyMapOptions options;
  options.smr = small_config(2);
  auto map = AnyMap::make(SchemeId::kEBR, StructureId::kHMList, options);
  ASSERT_TRUE(map.has_value());
  const unsigned base = map->active_handles();

  auto a = map->session();
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_EQ(map->active_handles(), base + 1);

  AnyMap::Session b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(map->active_handles(), base + 1);
  EXPECT_TRUE(b.insert(1, 10));
  EXPECT_TRUE(b.contains(1));

  b.reset();
  EXPECT_FALSE(static_cast<bool>(b));
  EXPECT_EQ(map->active_handles(), base);
  b.reset();  // idempotent
  EXPECT_EQ(map->active_handles(), base);
}

}  // namespace
}  // namespace scot::test
