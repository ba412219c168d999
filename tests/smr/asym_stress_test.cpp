// Concurrent begin_op/protect/retire/scan hammer for every reclaiming
// scheme, run with asymmetric fences ON and OFF against the same seed.  The
// writer continuously swaps out and retires nodes while readers open an
// operation per access — so the era schemes' *activation* publication
// (EBR's epoch reservation, IBR's interval, Hyaline's slot head) is
// hammered as hard as the slot schemes' protect() — and then hold the
// resulting protection; a reservation the (asymmetric) reclaimer side
// fails to observe lets the pool recycle a node a reader still
// dereferences, which the paired-payload check catches — and which TSan
// reports as a plain-write/plain-read race, making the TSan CI dimension
// (SCOT_ASYM=0/1) a second checker.
//
// Two churner threads additionally join and leave the handle registry in a
// tight loop (scoped_handle per iteration, occasionally leaving with a
// pending retire), so registry membership changes race the scans' heavy
// barriers and the late-joiner / orphan-adoption arguments of DESIGN.md §7
// are exercised under both fence disciplines.
//
// The two-domain variant runs two independent domains of the same scheme,
// each with its own writer and readers.  Heavy barriers are shared across
// the process (DESIGN.md §5, "Sharing one barrier"), so each writer's scans
// regularly ride on a barrier the other domain's writer issued; a reader
// whose reservation such a scan failed to observe trips the same checks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/xorshift.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

struct StressNode : ReclaimNode {
  std::uint64_t tag1;
  std::uint64_t tag2;
  explicit StressNode(std::uint64_t t) : tag1(t), tag2(t) {}
};

constexpr unsigned kSources = 8;
constexpr unsigned kReaders = 3;
constexpr unsigned kChurners = 2;

template <class Smr>
class AsymStressTest : public ::testing::Test {};

// Slot schemes (protect-side publication) plus the era schemes
// (activation-side publication); NR is omitted — it never reclaims, so the
// recycle-detection invariant is vacuous there.
using AsymSchemes = ::testing::Types<HpDomain, HpOptDomain, HeDomain,
                                     IbrDomain, EbrDomain, HyalineDomain>;
TYPED_TEST_SUITE(AsymStressTest, AsymSchemes);

// One domain under test: its sources and the domain that owns their nodes.
template <class Smr>
struct Arena {
  explicit Arena(const SmrConfig& cfg) : smr(cfg), src(kSources) {
    auto w = scoped_handle(smr);
    for (unsigned i = 0; i < kSources; ++i)
      src[i].store(w->template alloc<StressNode>(std::uint64_t{i}),
                   std::memory_order_release);
  }
  Smr smr;
  std::vector<std::atomic<ReclaimNode*>> src;
};

// Opens an operation, protects one source and checks its paired payload.
// Restart-flag schemes (Hyaline) may invalidate the operation instead of
// protecting — honour the contract and skip the dereference.
template <class Handle>
void read_one(Handle& h, std::atomic<ReclaimNode*>& src,
              std::atomic<std::uint64_t>& torn) {
  h.begin_op();
  ReclaimNode* p = h.protect(src, 0);
  if (!h.op_valid()) {
    h.revalidate_op();
  } else if (p != nullptr) {
    const auto* n = static_cast<const StressNode*>(p);
    const std::uint64_t a = n->tag1;
    const std::uint64_t b = n->tag2;
    if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
  }
  h.end_op();
}

// A writer that retires back to back never sees a barrier that started
// after its previous retire complete before its next one, so it never
// shares.  The two-domain writers pause every few thresholds until some
// other thread's barrier completes (bounded, in case none comes), so their
// next retire scans under it.
void await_foreign_barrier() {
  const std::uint64_t gen = asymfence::barrier_generation();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (!asymfence::barrier_completed_since(gen) &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
}

template <class Smr>
void hammer(bool asym, std::uint64_t seed, unsigned domains = 1) {
  SmrConfig cfg = scot::test::small_config(kReaders + 1);
  cfg.asymmetric_fences = asym;
  // Two domains: Hyaline batches on the benchmark's calibration (batch
  // floor = scan threshold), which leaves room for an early seal below
  // the floor; the default floor equals the 1S minimum.
  if (domains > 1) cfg.batch_capacity = cfg.scan_threshold;
  std::vector<std::unique_ptr<Arena<Smr>>> arenas;
  for (unsigned d = 0; d < domains; ++d)
    arenas.push_back(std::make_unique<Arena<Smr>>(cfg));

  const int writes = scot::test::scaled_iters(20000);
  const unsigned workers = domains * (kReaders + 1);
  std::atomic<unsigned> writers_left{domains};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  scot::test::run_threads(workers + kChurners, [&](unsigned tid) {
    if (tid >= workers) {
      // Churner: joins and leaves the registry in a tight loop while the
      // writer's asymmetric-fence scans are walking it — every iteration
      // interleaves a head push / record claim / release with concurrent
      // heavy-barrier snapshots, plus one protected read so a just-joined
      // record's first reservation is exercised immediately.
      Arena<Smr>& arena = *arenas[tid % domains];
      Xoshiro256 rng(seed * 0x7f4a7c15 + tid);
      while (!stop.load(std::memory_order_acquire)) {
        auto h = scoped_handle(arena.smr);
        read_one(h.get(), arena.src[rng.next_in(kSources)], torn);
        // Leave mid-workload with a pending retire every few laps, so the
        // orphan donate/adopt path runs under the same fence discipline.
        if (rng.next_in(4) == 0) {
          auto* extra = h->template alloc<StressNode>(0x200000000ULL + tid);
          h->retire(extra);
        }
      }
      return;
    }
    Arena<Smr>& arena = *arenas[tid / (kReaders + 1)];
    auto sh = scoped_handle(arena.smr);
    auto& h = sh.get();
    Xoshiro256 rng(seed * 0x2545f491 + tid);
    if (tid % (kReaders + 1) == kReaders) {
      const bool pace = domains > 1 && arena.smr.fence_path() ==
                                           asymfence::Path::kMembarrier;
      // Writer: swap a source to a fresh uniquely-tagged node, retire the
      // old one (driving scans at the small_config threshold).
      for (int i = 0; i < writes; ++i) {
        if (pace && i % 64 == 63) await_foreign_barrier();
        const unsigned s = static_cast<unsigned>(rng.next_in(kSources));
        auto* n = h.template alloc<StressNode>(
            0x100000000ULL + static_cast<std::uint64_t>(i));
        ReclaimNode* old = arena.src[s].exchange(n, std::memory_order_acq_rel);
        h.retire(old);
      }
      if (writers_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
        stop.store(true, std::memory_order_release);
      return;
    }
    // Reader: a fresh operation per access (activation is on the hot
    // path), protect, then check the paired payload.  While the
    // reservation is held the node must not be recycled, so the two tags
    // must match; a recycle in flight tears them (and trips TSan).
    while (!stop.load(std::memory_order_acquire))
      read_one(h, arena.src[rng.next_in(kSources)], torn);
  });

  EXPECT_EQ(torn.load(), 0u)
      << "a protected node was recycled under "
      << (asym ? "asymmetric" : "classic") << " fences";
  if (domains == 1) return;
  // Every paced retire after a completed barrier scans barrier-free, so on
  // the membarrier path the domains must show fewer barriers than scans.
  std::uint64_t scans = 0;
  std::uint64_t barriers = 0;
  for (const auto& arena : arenas) {
    const obs::StatsSnapshot st = arena->smr.stats();
    if (!st.enabled ||
        arena->smr.fence_path() != asymfence::Path::kMembarrier)
      return;
    scans += st.scans;
    barriers += st.heavy_barriers;
  }
  EXPECT_GT(scans, barriers) << "no scan reused another thread's barrier";
}

TYPED_TEST(AsymStressTest, ProtectRetireScanAsymmetric) {
  hammer<TypeParam>(/*asym=*/true, /*seed=*/0xA5A5);
}

TYPED_TEST(AsymStressTest, ProtectRetireScanClassic) {
  hammer<TypeParam>(/*asym=*/false, /*seed=*/0xA5A5);
}

TYPED_TEST(AsymStressTest, TwoDomainsShareBarriers) {
  hammer<TypeParam>(/*asym=*/true, /*seed=*/0x5A5A, /*domains=*/2);
}

}  // namespace
}  // namespace scot
