// The shared skeleton of every reclamation domain (DESIGN.md §6).
//
// A scheme domain derives from DomainCore<Domain> and nests its Handle
// (derived from HandleCore or LimboHandle, smr/handle_core.hpp).  The core
// owns everything that is not scheme logic: configuration, node pool,
// counters, the era/epoch clock, the handle registry with join/leave, the
// orphan mailbox, the background reclaimer's lifecycle, teardown drain and
// the observability snapshot.  The scheme keeps its reservation, protect
// and scan (or batch) logic.
//
// Lifetime: the core is constructed before and destroyed after the scheme's
// own members, so the service thread must run only while both are alive.
// A reclaiming scheme therefore calls start_configured() at the end of its
// constructor and shutdown() in its destructor; the core does neither.
// Member order below keeps the obs cell list alive until after the registry
// records (which hold raw cell pointers) are destroyed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/asymfence.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "smr/handle_core.hpp"
#include "smr/handle_registry.hpp"
#include "smr/node_pool.hpp"
#include "smr/reclaimer.hpp"
#include "smr/smr_config.hpp"

namespace scot {

template <class Domain>
class DomainCore {
 public:
  DomainCore(const DomainCore&) = delete;
  DomainCore& operator=(const DomainCore&) = delete;

  // --- dynamic membership (DESIGN.md §7) ------------------------------------
  // Claims a per-thread handle (thread-local cache hit, scavenge, or
  // append); the reference stays valid until the matching leave().
  // Lock-free (one CAS on the re-join fast path).  The record index names
  // the handle's pool shard, so the pool grows to cover it.
  auto& join() {
    auto* rec = registry_.acquire([this](unsigned idx) {
      return typename Domain::Handle(static_cast<Domain*>(this), idx);
    });
    rec->handle.registry_record_ = rec;
    pool_.ensure_shards(rec->index + 1);
    obs::count(rec->handle.stats_, obs::Counter::kJoins);
    obs::trace_instant(obs::TraceKind::kJoin);
    return rec->handle;
  }

  // Contract: no operation in flight.  After the scheme's pre-step, the
  // retires the handle still owns go to the background reclaimer when it
  // runs; otherwise a final inline reclaim frees what it can and the rest
  // is donated to the orphan mailbox for adoption by the next retirer.
  // The record is then released for reuse.
  template <class Handle>
  void leave(Handle& h) {
    h.prepare_leave();
    if (h.limbo_.count > 0) {
      if (bg_.is_active()) {
        donate_limbo(h.limbo_, bg_.mailbox);
        bg_.thread.ring();
        obs::count(h.stats_, obs::Counter::kOrphanDonations);
      } else {
        h.reclaim_on_leave();
        if (donate_limbo(h.limbo_, orphans_) > 0)
          obs::count(h.stats_, obs::Counter::kOrphanDonations);
      }
    }
    obs::count(h.stats_, obs::Counter::kLeaves);
    obs::trace_instant(obs::TraceKind::kLeave);
    registry_.release(
        static_cast<typename HandleRegistry<Domain>::Record*>(
            h.registry_record_));
  }

  unsigned active_handles() const noexcept { return registry_.active(); }
  std::size_t total_handle_records() const noexcept {
    return registry_.total_records();
  }
  const HandleRegistry<Domain>& registry() const noexcept { return registry_; }

  // Table 2 telemetry summed over every record ever created (the counters
  // are cumulative across join/leave reuse).  Safe while workers run:
  // approximate then, exact in quiescence.
  std::uint64_t restarts() const noexcept {
    std::uint64_t n = 0;
    for (const auto* r = registry_.head(); r != nullptr; r = r->next_record())
      n += r->handle.ds_restarts.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t recoveries() const noexcept {
    std::uint64_t n = 0;
    for (const auto* r = registry_.head(); r != nullptr; r = r->next_record())
      n += r->handle.ds_recoveries.load(std::memory_order_relaxed);
    return n;
  }

  // --- background reclamation (smr/reclaimer.hpp, DESIGN.md §9) -----------
  ReclaimControl& reclaim_control() noexcept { return bg_; }
  bool background_active() const noexcept { return bg_.is_active(); }
  BgReclaimStats background_stats() const noexcept { return bg_stats_of(bg_); }
  bool counts_heavy_barrier_per_reclaim() const noexcept {
    return fence_path_ != asymfence::Path::kClassic;
  }

  // Launches the service thread (no-op when already running).  Not
  // thread-safe against a concurrent start/stop — one controller thread,
  // the same contract as domain construction; safe against concurrent
  // mutator operations.
  void start_background_reclaimer() {
    if (bg_.thread.running()) return;
    if (!reclaimer_)
      reclaimer_ = std::make_unique<DomainReclaimer<Domain>>(
          *static_cast<Domain*>(this));
    bg_.active.store(true, std::memory_order_release);
    bg_.thread.start(cfg_.reclaim_interval_us,
                     [this] { reclaimer_->round(); });
  }

  // Stops and joins the service thread, runs a final synchronous drain and
  // releases the reclaimer's handle.  Mutators revert to inline scanning
  // and re-adopt anything still parked in the background mailbox.
  void stop_background_reclaimer() {
    bg_.active.store(false, std::memory_order_release);
    bg_.thread.stop();
    if (reclaimer_) {
      reclaimer_->detach();
      reclaimer_.reset();
    }
  }

  const SmrConfig& config() const noexcept { return cfg_; }
  NodePool& pool() noexcept { return pool_; }
  std::int64_t pending_nodes() const noexcept {
    return counters_.pending.load(std::memory_order_relaxed);
  }
  const SmrCounters& counters() const noexcept { return counters_; }
  asymfence::Path fence_path() const noexcept { return fence_path_; }

  // Observability (DESIGN.md §8): the per-handle cell list and the
  // aggregated snapshot.
  obs::DomainStats& obs_stats() noexcept { return stats_obs_; }
  obs::StatsSnapshot stats() const {
    obs::StatsSnapshot s = stats_obs_.snapshot();
    s.enabled = SCOT_STATS != 0 && cfg_.track_stats;
    s.pending = pending_nodes();
    s.retired_total = counters_.retired.load(std::memory_order_relaxed);
    s.reclaimed_total = counters_.reclaimed.load(std::memory_order_relaxed);
    return s;
  }

 protected:
  template <class, class>
  friend class HandleCore;
  template <class, class, bool>
  friend class LimboHandle;

  explicit DomainCore(const SmrConfig& cfg)
      : cfg_(cfg),
        pool_(cfg.max_threads),
        fence_path_(asymfence::resolve(cfg.asymmetric_fences)) {
    bg_.scan_threshold.store(cfg_.scan_threshold, std::memory_order_relaxed);
    bg_.era_freq.store(cfg_.era_freq, std::memory_order_relaxed);
  }
  ~DomainCore() = default;

  // End of the scheme constructor: start the reclaimer if configured.
  void start_configured() {
    if (cfg_.background_reclaim) start_background_reclaimer();
  }

  // Scheme destructor: stop the reclaimer, then free every retired node
  // still owned by a record or parked in either mailbox (no thread is
  // active any more).
  void shutdown() {
    stop_background_reclaimer();
    std::uint64_t freed = 0;
    for (auto* r = registry_.head(); r != nullptr; r = r->next_record())
      freed += free_chain(r->handle.limbo_.take(), r->index);
    freed += free_chain(orphans_.take_all(), 0);
    freed += free_chain(bg_.mailbox.take_all(), 0);
    counters_.on_free(freed, cfg_.track_stats);
  }

  SmrConfig cfg_;
  NodePool pool_;
  SmrCounters counters_;
  // The era/epoch clock (EBR, HE, IBR, Hyaline); HP and NR never tick it.
  std::atomic<std::uint64_t> clock_{1};
  asymfence::Path fence_path_;
  // Declared before the registry: handles hold raw cell pointers, so the
  // cell list must be destroyed after the records are.
  obs::DomainStats stats_obs_;
  HandleRegistry<Domain> registry_;
  OrphanList orphans_;
  ReclaimControl bg_;
  std::unique_ptr<DomainReclaimer<Domain>> reclaimer_;

 private:
  std::uint64_t free_chain(ReclaimNode* n, unsigned shard) {
    std::uint64_t freed = 0;
    while (n != nullptr) {
      ReclaimNode* next = n->smr_next;
      pool_.free(shard, n, n->alloc_size);
      ++freed;
      n = next;
    }
    return freed;
  }
};

}  // namespace scot
