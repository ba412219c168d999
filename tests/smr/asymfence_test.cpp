// Asymmetric-fence path resolution and the membarrier-unavailable fallback:
// the knob selects the classic path exactly, the forced fallback engages
// automatically, and the reclaimer side still quiesces readers on every
// path.  Covers the slot schemes (HP/HPopt protect publication) and the
// era schemes (EBR/IBR/Hyaline begin_op activation, HE first-slot publish;
// Hyaline's "scan" is the retire-batch handoff plus the end_op drain).
// Also covers barrier sharing: a heavy barrier completed in one domain lets
// a handle in another scan (or seal) without issuing its own, never on the
// fallback path; and the HP/HE slot layout that keeps protect() writes off
// the lines every scan reads.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/align.hpp"
#include "common/asymfence.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

using test::TestNode;

// Restores the test hook on scope exit so a failing assertion cannot leak
// the forced fallback into later tests.
struct ForcedFallback {
  explicit ForcedFallback(bool on = true) {
    asymfence::force_fallback_for_testing(on);
  }
  ~ForcedFallback() { asymfence::force_fallback_for_testing(false); }
};

template <class Smr>
class AsymFenceTest : public ::testing::Test {};

// Every scheme with a reader-side publication the asymmetric discipline
// relaxes: protect-side (HP/HPopt/HE) and activation-side (EBR/IBR/HLN).
using FenceBearingSchemes =
    ::testing::Types<HpDomain, HpOptDomain, HeDomain, IbrDomain, EbrDomain,
                     HyalineDomain>;
TYPED_TEST_SUITE(AsymFenceTest, FenceBearingSchemes);

// Hyaline has no scan(): its reclaimer side is the retire-batch handoff,
// and a parked batch is freed when the last reservation holding it drains
// (the reader's end_op).  The other schemes expose an explicit scan.
template <class Handle>
void reclaim_after_release(Handle& writer) {
  if constexpr (requires { writer.scan(); }) writer.scan();
}

TYPED_TEST(AsymFenceTest, KnobOffResolvesClassic) {
  SmrConfig cfg = test::small_config();
  cfg.asymmetric_fences = false;
  TypeParam smr(cfg);
  EXPECT_EQ(smr.fence_path(), asymfence::Path::kClassic);
}

TYPED_TEST(AsymFenceTest, KnobOnResolvesAsymmetricPath) {
  SmrConfig cfg = test::small_config();
  cfg.asymmetric_fences = true;
  TypeParam smr(cfg);
  EXPECT_NE(smr.fence_path(), asymfence::Path::kClassic);
}

TYPED_TEST(AsymFenceTest, FallbackEngagesWhenMembarrierUnavailable) {
  ForcedFallback forced;
  SmrConfig cfg = test::small_config();
  cfg.asymmetric_fences = true;
  TypeParam smr(cfg);
  EXPECT_EQ(smr.fence_path(), asymfence::Path::kFenceFallback);
  EXPECT_STREQ(asymfence::runtime_path_name(), "fence-fallback");
}

// The core quiescence guarantee on the fallback path: a protected node
// survives scan churn, and releasing the protection makes it reclaimable.
TYPED_TEST(AsymFenceTest, FallbackScansStillQuiesceReaders) {
  ForcedFallback forced;
  SmrConfig cfg = test::small_config(2);
  cfg.asymmetric_fences = true;
  TypeParam smr(cfg);
  ASSERT_EQ(smr.fence_path(), asymfence::Path::kFenceFallback);

  auto reader_h = scoped_handle(smr);
  auto writer_h = scoped_handle(smr);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  auto* victim = writer.template alloc<TestNode>(std::uint64_t{42});
  std::atomic<ReclaimNode*> src{victim};

  reader.begin_op();
  ReclaimNode* got = reader.protect(src, 0);
  ASSERT_EQ(got, victim);
  writer.retire(victim);
  test::churn_retire(writer, 3000);  // force many scans (heavy barriers)
  EXPECT_EQ(victim->debug_state, kNodeRetired)
      << "fallback scans must still observe the reservation";
  EXPECT_EQ(static_cast<TestNode*>(got)->payload, 42u);
  reader.end_op();

  reclaim_after_release(writer);
  EXPECT_EQ(victim->debug_state, kNodeFreed)
      << "after release the fallback reclaimer must reclaim the node";
}

// Same guarantee on whichever asymmetric path the host resolves (the
// membarrier fast path on Linux, the fallback elsewhere) and on classic.
TYPED_TEST(AsymFenceTest, ProtectionHoldsOnEveryPath) {
  for (const bool asym : {true, false}) {
    SmrConfig cfg = test::small_config(2);
    cfg.asymmetric_fences = asym;
    TypeParam smr(cfg);

    auto reader_h = scoped_handle(smr);
    auto writer_h = scoped_handle(smr);
    auto& reader = reader_h.get();
    auto& writer = writer_h.get();
    auto* victim = writer.template alloc<TestNode>(std::uint64_t{7});
    std::atomic<ReclaimNode*> src{victim};

    reader.begin_op();
    ASSERT_EQ(reader.protect(src, 0), victim);
    writer.retire(victim);
    test::churn_retire(writer, 2000);
    EXPECT_EQ(victim->debug_state, kNodeRetired)
        << (asym ? "asymmetric" : "classic") << " path lost a protection";
    reader.end_op();
  }
}

// --- barrier sharing (DESIGN.md §5, "Sharing one barrier") ----------------

std::uint64_t cell(const obs::StatsCell* c, obs::Counter k) {
  return c->counts[static_cast<unsigned>(k)].load();
}

// Threshold 16 for every scheme, Hyaline's batch floor included, so a
// handful of retires is parked without any reclamation of its own.
SmrConfig sharing_config() {
  SmrConfig cfg = test::small_config(2);
  cfg.asymmetric_fences = true;
  cfg.batch_capacity = cfg.scan_threshold;
  return cfg;
}

// One threshold-full of retires through a fresh handle of `a`: a scan (or
// seal) that issues its own heavy barrier.
template <class Smr>
void barrier_from(Smr& a) {
  auto h = scoped_handle(a);
  test::churn_retire(h.get(), static_cast<int>(a.config().scan_threshold));
  if (h->stats_ != nullptr) {
    ASSERT_GT(cell(h->stats_, obs::Counter::kHeavyBarriers), 0u);
  }
}

TYPED_TEST(AsymFenceTest, BarrierFromAnotherDomainCoversScan) {
  const SmrConfig cfg = sharing_config();
  TypeParam a(cfg);
  TypeParam b(cfg);
  if (b.fence_path() != asymfence::Path::kMembarrier) {
    GTEST_SKIP() << "membarrier unavailable; barriers are not shared";
  }
  auto hb = scoped_handle(b);
  test::churn_retire(hb.get(), 4);
  ASSERT_EQ(b.pending_nodes(), 4) << "below the threshold, nothing is freed";
  barrier_from(a);
  test::churn_retire(hb.get(), 1);
  EXPECT_EQ(b.pending_nodes(), 1)
      << "the four parked nodes must be freed under a's barrier";
  if (hb->stats_ != nullptr) {
    EXPECT_GT(cell(hb->stats_, obs::Counter::kScans), 0u);
    EXPECT_EQ(cell(hb->stats_, obs::Counter::kHeavyBarriers), 0u);
  }
}

TYPED_TEST(AsymFenceTest, ReservedNodeSurvivesBarrierFreeScan) {
  const SmrConfig cfg = sharing_config();
  TypeParam a(cfg);
  TypeParam b(cfg);
  if (b.fence_path() != asymfence::Path::kMembarrier) {
    GTEST_SKIP() << "membarrier unavailable; barriers are not shared";
  }
  auto reader_h = scoped_handle(b);
  auto writer_h = scoped_handle(b);
  auto& reader = reader_h.get();
  auto& writer = writer_h.get();
  auto* victim = writer.template alloc<TestNode>(std::uint64_t{42});
  std::atomic<ReclaimNode*> src{victim};

  reader.begin_op();
  ASSERT_EQ(reader.protect(src, 0), victim);
  writer.retire(victim);
  test::churn_retire(writer, 3);
  barrier_from(a);
  test::churn_retire(writer, 1);  // the barrier-free scan / seal
  if (writer.stats_ != nullptr) {
    EXPECT_GT(cell(writer.stats_, obs::Counter::kScans), 0u);
    EXPECT_EQ(cell(writer.stats_, obs::Counter::kHeavyBarriers), 0u);
  }
  EXPECT_EQ(victim->debug_state, kNodeRetired)
      << "a barrier-free scan lost a reservation";
  EXPECT_EQ(static_cast<TestNode*>(victim)->payload, 42u);
  reader.end_op();

  reclaim_after_release(writer);
  EXPECT_EQ(victim->debug_state, kNodeFreed);
}

// A fallback barrier is a local fence and publishes no generation, so a
// fallback domain's scans each pay their own, even after a membarrier
// completes elsewhere in the process.
TYPED_TEST(AsymFenceTest, FallbackNeverScansWithoutBarrier) {
  const SmrConfig cfg = sharing_config();
  TypeParam a(cfg);
  if (a.fence_path() != asymfence::Path::kMembarrier) {
    GTEST_SKIP() << "membarrier unavailable; no barrier to share";
  }
  ForcedFallback forced;
  TypeParam b(cfg);
  ASSERT_EQ(b.fence_path(), asymfence::Path::kFenceFallback);
  auto hb = scoped_handle(b);
  test::churn_retire(hb.get(), 4);
  barrier_from(a);
  test::churn_retire(hb.get(), 1);
  EXPECT_EQ(b.pending_nodes(), 5)
      << "a fallback domain reused another thread's barrier";
  test::churn_retire(hb.get(), 100);
  if (hb->stats_ != nullptr) {
    const std::uint64_t scans = cell(hb->stats_, obs::Counter::kScans);
    EXPECT_GT(scans, 0u);
    EXPECT_EQ(cell(hb->stats_, obs::Counter::kHeavyBarriers), scans);
  }
}

// HP/HE: every protect() writes used_mask_, every other thread's scan reads
// the slot-array pointer, so the two sit in different false-sharing
// ranges; and each array starts a range of its own, so two threads' slots
// never share a line.
template <class Smr>
void expect_slot_lines_isolated() {
  Smr smr(test::small_config(2));
  auto h1 = scoped_handle(smr);
  auto h2 = scoped_handle(smr);
  const auto range = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kFalseSharingRange;
  };
  for (const auto* h : {&h1.get(), &h2.get()}) {
    EXPECT_NE(range(h->used_mask_address()), range(h->slots_address()))
        << Smr::kName;
    EXPECT_EQ(
        reinterpret_cast<std::uintptr_t>(h->slot_array()) % kFalseSharingRange,
        0u)
        << Smr::kName;
  }
  EXPECT_NE(range(h1->slot_array()), range(h2->slot_array())) << Smr::kName;
}

TEST(HazardSlotLayout, ProtectWritesStayOffScannedLines) {
  expect_slot_lines_isolated<HpDomain>();
  expect_slot_lines_isolated<HpOptDomain>();
  expect_slot_lines_isolated<HeDomain>();
}

TEST(AsymFencePathNames, AreStable) {
  EXPECT_STREQ(asymfence::path_name(asymfence::Path::kClassic), "classic");
  EXPECT_STREQ(asymfence::path_name(asymfence::Path::kMembarrier),
               "membarrier");
  EXPECT_STREQ(asymfence::path_name(asymfence::Path::kFenceFallback),
               "fence-fallback");
}

TEST(AsymFenceBarriers, FallbackBarriersAreCallable) {
  // Smoke both barrier flavours on the fallback path (no registration
  // required) — they must be plain fences, not syscalls that can fail.
  asymfence::light_barrier(asymfence::Path::kFenceFallback);
  asymfence::heavy_barrier(asymfence::Path::kFenceFallback);
}

}  // namespace
}  // namespace scot
