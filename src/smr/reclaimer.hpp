// Background reclaimer: one per-domain service thread (DESIGN.md §9).
//
// With `SmrConfig::background_reclaim` on, a domain runs one service thread
// for its whole life and the mutator-side reclamation duties invert:
//
//  * retire() stays "append to the private limbo list", but on reaching the
//    scan threshold the mutator donates the WHOLE chain to the domain's
//    retire mailbox (one CAS) and rings the reclaimer's doorbell.  No scan,
//    no reservation snapshot, and — the point of the exercise — no
//    process-wide heavy barrier on any mutator.  leave() donates to the
//    same mailbox.
//
//  * The service thread runs rounds: adopt everything in the mailbox, then
//    run the scheme's ONE existing scan/seal entry point, which issues
//    exactly one `asymfence::heavy_barrier()` for the whole adopted backlog.
//    The reclaimer is just another registered handle, so snapshot scratch,
//    pool shard and stats cell all come for free.
//
// Lifecycle: the scheme constructor's last step joins the reclaimer's
// handle and launches the thread; the destructor's DomainCore::shutdown()
// joins the thread, leaves the handle (its leftover goes to the mailbox)
// and then frees everything still parked anywhere.  Like any thread-owning
// object the reclaimer does not survive fork(); a child process must not
// touch a domain whose parent had background reclamation running.
//
// The doorbell (`ReclaimerThreadBase::ring`) is lock-free on the mutator
// side: set an atomic flag and notify only if the service thread is
// observed sleeping.  A lost wakeup is bounded by `kReclaimIntervalUs` —
// the thread polls at that period regardless, which also retries nodes a
// live reservation protected during the previous round.
#pragma once

#include <atomic>
#include <functional>

#include "obs/stats.hpp"

namespace scot {

// The service thread's poll period in microseconds.
inline constexpr unsigned kReclaimIntervalUs = 100;

// The standing thread, shorn of everything domain-specific so the blocking
// machinery lives in one TU (reclaimer.cpp) instead of every scheme header.
class ReclaimerThreadBase {
 public:
  ReclaimerThreadBase();
  ~ReclaimerThreadBase();
  ReclaimerThreadBase(const ReclaimerThreadBase&) = delete;
  ReclaimerThreadBase& operator=(const ReclaimerThreadBase&) = delete;

  // Launches the service thread; `round` runs once per wakeup.  Called at
  // most once.
  void start(std::function<void()> round);

  // Stops and joins the thread (idempotent; no-op when never started).
  void stop();

  // Mutator-side doorbell: request a round soon.  Lock-free and safe from
  // any thread at any time, including before start and after stop.
  void ring() noexcept;

 private:
  struct Impl;  // mutex/condvar live behind the TU boundary
  Impl* impl_;
  std::atomic<bool> work_{false};
  std::atomic<bool> sleeping_{false};
};

// Per-domain background state, embedded by value in every scheme domain.
// `active` is fixed at construction: mutators branch on it at every retire
// threshold crossing and in leave().
struct ReclaimControl {
  explicit ReclaimControl(bool on) : active(on) {}
  const bool active;
  ReclaimerThreadBase thread;
};

// The domain-typed half of the service: owns the reclaimer's registered
// handle.  The Handle must provide the two background hooks:
//   bg_collect()  adopt the domain mailbox into its own limbo/batch
//   bg_reclaim()  -> bool: run the shared scan/seal entry point if there
//                 is anything to reclaim; true if it ran
template <class Domain>
class DomainReclaimer {
 public:
  explicit DomainReclaimer(Domain& d) : dom_(d), h_(d.join()) {}
  DomainReclaimer(const DomainReclaimer&) = delete;
  DomainReclaimer& operator=(const DomainReclaimer&) = delete;

  // One service round: adopt the backlog and reclaim it behind a single
  // heavy barrier.  Runs on the service thread only.
  void round() {
    obs::count(h_.stats_, obs::Counter::kBgRounds);
    h_.bg_collect();
    // After freeing, push the recycled nodes back where mutators can reach
    // them — otherwise every free strands in this thread's shard.
    if (h_.bg_reclaim()) dom_.pool().donate_free_lists(h_.tid());
  }

  // After the thread is joined: hand the handle back.  leave() parks what
  // a live reservation still protects in the mailbox, which the domain's
  // teardown drain then frees.
  void detach() { dom_.leave(h_); }

 private:
  Domain& dom_;
  typename Domain::Handle& h_;
};

}  // namespace scot
