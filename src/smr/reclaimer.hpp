// Background reclaimer: per-domain service thread + adaptive thresholds
// (DESIGN.md §9).
//
// With `SmrConfig::background_reclaim` on, a domain runs one standing
// service thread and the mutator-side reclamation duties invert:
//
//  * retire() stays "append to the private limbo list", but on reaching the
//    effective scan threshold the mutator donates the WHOLE chain to the
//    domain's `ReclaimControl::mailbox` (one CAS — the RetireMailbox
//    machinery the orphan handoff already proved out) and rings the
//    reclaimer's doorbell.  No scan, no reservation snapshot, and — the
//    point of the exercise — no process-wide heavy barrier on any mutator.
//
//  * The service thread runs rounds: adopt every donated chain (plus any
//    orphans), then run the scheme's ONE existing scan/seal entry point,
//    which issues exactly one `asymfence::heavy_barrier()` for the whole
//    adopted backlog.  The IPI the PR 5 asymmetric-fence discipline pays per
//    scanning mutator is thereby amortized across every thread's batches.
//    Inline and background reclamation share the same scan()/seal_batch()
//    implementation — the reclaimer is just another registered handle, so
//    snapshot scratch, pool shard and stats cell all come for free.
//
//  * The service thread also owns adaptive control: when the domain is
//    configured with a `memory_target`, each round compares the pending-node
//    gauge against it and halves the effective scan_threshold/era_freq while
//    over target (floors apply), relaxing back toward the configured values
//    once pending drops below half the target.  Mutators read the effective
//    values with relaxed loads — staleness costs one round of lag, nothing
//    more.
//
// Lifecycle (first standing service thread in the codebase):
//  * start: the constructing (or calling) thread joins the reclaimer's
//    handle into the domain registry, publishes `active`, then launches the
//    thread.  start/stop are NOT thread-safe against each other — one
//    controller at a time, same contract as domain construction/destruction.
//  * stop: clear `active` (mutators revert to inline scanning and also
//    re-adopt anything still parked in the mailbox), join the thread, run
//    one final synchronous collect+reclaim, then leave() the handle — which
//    donates whatever is still reservation-protected to the orphan mailbox.
//    Custody is preserved at every step; nothing leaks (ASan-verified in
//    tests/smr/reclaimer_test.cpp).
//  * The domain destructor's DomainCore::shutdown() stops the reclaimer
//    before its drain, and the drain also empties the background mailbox —
//    so shutdown mid-donation is safe.
//  * fork() note: like any thread-owning object, the reclaimer does not
//    survive fork(); a child process must not touch a domain whose parent
//    had background reclamation running.  (No fork handlers are installed —
//    the library has no other process-global state to re-arm.)
//
// The doorbell (`ReclaimerThreadBase::ring`) is deliberately lock-free on
// the mutator side: set an atomic flag and notify only if the service
// thread is observed sleeping.  A lost wakeup is bounded by
// `reclaim_interval_us` — the thread polls at that period regardless.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "obs/stats.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr_config.hpp"

namespace scot {

// The standing thread, shorn of everything domain-specific so the blocking
// machinery lives in one TU (reclaimer.cpp) instead of every scheme header.
// Embedded by value in ReclaimControl — it must outlive any mutator that
// might still ring() it, so it shares the domain's lifetime, not the
// reclaimer session's.
class ReclaimerThreadBase {
 public:
  ReclaimerThreadBase();
  ~ReclaimerThreadBase();
  ReclaimerThreadBase(const ReclaimerThreadBase&) = delete;
  ReclaimerThreadBase& operator=(const ReclaimerThreadBase&) = delete;

  // Launches the service thread; `round` runs once per wakeup.  Must not be
  // called while running() (one controller at a time).
  void start(unsigned interval_us, std::function<void()> round);

  // Stops and joins the thread (idempotent; no-op when not running).  The
  // round callback is released before returning.
  void stop();

  // Mutator-side doorbell: request a round soon.  Lock-free and safe from
  // any thread at any time, including when the thread is not running (the
  // flag is simply consumed by the next start).
  void ring() noexcept;

  bool running() const noexcept;

 private:
  struct Impl;  // mutex/condvar live behind the TU boundary
  Impl* impl_;
  std::atomic<bool> work_{false};
  std::atomic<bool> sleeping_{false};
  std::atomic<bool> running_{false};
};

// Per-domain shared state for the background path, embedded by value in
// every scheme domain.  Mutators touch only `mailbox`, the three effective
// knobs and the doorbell; the telemetry block is single-writer (the service
// thread) / racy-read (background_stats()).
struct ReclaimControl {
  RetireMailbox mailbox;

  // Effective thresholds (initialized from SmrConfig by the domain ctor;
  // retuned by the adaptive controller).  Relaxed loads on the retire path.
  std::atomic<unsigned> scan_threshold{0};
  std::atomic<unsigned> era_freq{0};

  // True while the service thread is accepting donations.  Checked with a
  // relaxed load at every retire threshold crossing; a stale `true` after
  // stop only parks the chain in the mailbox, where the now-inline mutators
  // (and the domain destructor) re-adopt it.
  std::atomic<bool> active{false};

  ReclaimerThreadBase thread;

  // Telemetry (service-thread-written; see BgReclaimStats).
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> heavy_barriers{0};
  std::atomic<std::uint64_t> nodes_adopted{0};
  std::atomic<std::uint64_t> adaptations{0};

  bool is_active() const noexcept {
    return active.load(std::memory_order_relaxed);
  }
  unsigned effective_scan_threshold() const noexcept {
    return scan_threshold.load(std::memory_order_relaxed);
  }
  unsigned effective_era_freq() const noexcept {
    return era_freq.load(std::memory_order_relaxed);
  }
};

// Snapshot of a domain's background-reclaim telemetry, readable whether or
// not the reclaimer is (still) running.  `heavy_barriers` is the round-side
// attribution count the zero-mutator-barrier acceptance test keys on: with
// background reclaim on it must equal the domain-wide obs heavy_barriers
// aggregate.
struct BgReclaimStats {
  bool active = false;
  unsigned effective_scan_threshold = 0;
  unsigned effective_era_freq = 0;
  std::uint64_t rounds = 0;
  std::uint64_t scans = 0;
  std::uint64_t heavy_barriers = 0;
  std::uint64_t batches_donated = 0;  // mailbox donate() count (mutator side)
  std::uint64_t nodes_adopted = 0;
  std::uint64_t adaptations = 0;
};

inline BgReclaimStats bg_stats_of(const ReclaimControl& c) noexcept {
  BgReclaimStats s;
  s.active = c.active.load(std::memory_order_relaxed);
  s.effective_scan_threshold = c.effective_scan_threshold();
  s.effective_era_freq = c.effective_era_freq();
  s.rounds = c.rounds.load(std::memory_order_relaxed);
  s.scans = c.scans.load(std::memory_order_relaxed);
  s.heavy_barriers = c.heavy_barriers.load(std::memory_order_relaxed);
  s.batches_donated = c.mailbox.donations();
  s.nodes_adopted = c.nodes_adopted.load(std::memory_order_relaxed);
  s.adaptations = c.adaptations.load(std::memory_order_relaxed);
  return s;
}

// The domain-typed half of the service: owns the reclaimer's registered
// handle and the round/adapt logic.  Domain must provide:
//   reclaim_control()          -> ReclaimControl&
//   join() / leave(Handle&)    -> registry membership
//   config(), pending_nodes()
//   counts_heavy_barrier_per_reclaim() -> bool (fence path != classic)
// and its Handle must provide the two background hooks:
//   bg_collect()  -> unsigned  adopt mailbox + orphans into own limbo/batch
//   bg_reclaim()  -> bool      run the shared scan/seal entry point if there
//                              is anything to reclaim; true if it ran
template <class Domain>
class DomainReclaimer {
 public:
  explicit DomainReclaimer(Domain& d)
      : dom_(d),
        h_(&d.join()),
        base_scan_threshold_(
            d.reclaim_control().effective_scan_threshold()),
        base_era_freq_(d.reclaim_control().effective_era_freq()) {}

  ~DomainReclaimer() {
    if (h_ != nullptr) detach();
  }
  DomainReclaimer(const DomainReclaimer&) = delete;
  DomainReclaimer& operator=(const DomainReclaimer&) = delete;

  // One service round: adopt the backlog, reclaim it behind a single heavy
  // barrier, retune the thresholds.  Runs on the service thread only.
  void round() {
    ReclaimControl& c = dom_.reclaim_control();
    const std::uint64_t donations_before = c.mailbox.donations();
    const unsigned adopted = h_->bg_collect();
    const bool reclaimed = h_->bg_reclaim();

    bump(c.rounds, 1);
    obs::count(h_->stats_, obs::Counter::kBgRounds);
    if (adopted > 0) {
      bump(c.nodes_adopted, adopted);
      const std::uint64_t batches =
          c.mailbox.donations() - donations_before + adopted_chains_carry_;
      adopted_chains_carry_ = 0;
      obs::count(h_->stats_, obs::Counter::kBgBatchesAdopted,
                 batches > 0 ? batches : 1);
    } else {
      // Donations that raced past the take are counted with the round that
      // actually consumes them.
      adopted_chains_carry_ += c.mailbox.donations() - donations_before;
    }
    if (reclaimed) {
      bump(c.scans, 1);
      if (dom_.counts_heavy_barrier_per_reclaim()) bump(c.heavy_barriers, 1);
      // After freeing, push the recycled nodes back where mutators can
      // reach them — otherwise every free strands in this thread's shard.
      dom_.pool().donate_free_lists(h_->tid());
    }
    adapt(c);
  }

  // Post-join cleanup on the controller thread: consume what the final
  // in-thread round may have missed, then hand the handle (and any nodes a
  // live reservation still protects) back to the domain.
  void detach() {
    h_->bg_collect();
    h_->bg_reclaim();
    dom_.pool().donate_free_lists(h_->tid());
    dom_.leave(*h_);
    h_ = nullptr;
  }

 private:
  static void bump(std::atomic<std::uint64_t>& a, std::uint64_t n) noexcept {
    a.store(a.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  // Feedback control against the pending-node gauge.  Halving pressure
  // (smaller scan batches, faster era advance) while over target converges
  // in O(log threshold) rounds; the floors keep the system out of
  // scan-per-retire thrash.  Hysteresis: relax only below target/2.
  void adapt(ReclaimControl& c) {
    const std::uint64_t target = dom_.config().memory_target;
    if (target == 0) return;
    constexpr unsigned kMinThreshold = 8;
    constexpr unsigned kMinEraFreq = 4;
    const auto pending =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, dom_.pending_nodes()));
    bool changed = false;
    unsigned st = c.scan_threshold.load(std::memory_order_relaxed);
    unsigned ef = c.era_freq.load(std::memory_order_relaxed);
    if (pending > target) {
      if (st > kMinThreshold) {
        c.scan_threshold.store(std::max(kMinThreshold, st / 2),
                               std::memory_order_relaxed);
        changed = true;
      }
      if (ef > kMinEraFreq) {
        c.era_freq.store(std::max(kMinEraFreq, ef / 2),
                         std::memory_order_relaxed);
        changed = true;
      }
    } else if (pending < target / 2) {
      if (st < base_scan_threshold_) {
        c.scan_threshold.store(std::min(base_scan_threshold_, st * 2),
                               std::memory_order_relaxed);
        changed = true;
      }
      if (ef < base_era_freq_) {
        c.era_freq.store(std::min(base_era_freq_, ef * 2),
                         std::memory_order_relaxed);
        changed = true;
      }
    }
    if (changed) {
      bump(c.adaptations, 1);
      obs::count(h_->stats_, obs::Counter::kBgAdaptations);
    }
  }

  Domain& dom_;
  typename Domain::Handle* h_;
  const unsigned base_scan_threshold_;
  const unsigned base_era_freq_;
  std::uint64_t adopted_chains_carry_ = 0;
};

}  // namespace scot
