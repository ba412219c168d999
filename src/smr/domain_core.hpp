// The shared skeleton of every reclamation domain (DESIGN.md §6).
//
// A scheme domain derives from DomainCore<Domain> and nests its Handle
// (derived from HandleCore or LimboHandle, smr/handle_core.hpp).  The core
// owns everything that is not scheme logic: configuration, node pool, the
// retire/free books, the era/epoch clock, the handle registry with
// join/leave, the retire mailbox, the background reclaimer's lifecycle,
// teardown drain and the observability snapshot.  The scheme keeps its
// reservation, protect and scan (or batch) logic.
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

#include "common/align.hpp"
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
  // retires the handle still owns are donated to the retire mailbox: whole,
  // for the background reclaimer when it runs; otherwise after a final
  // inline reclaim, for adoption by the next retirer.  The record is then
  // released for reuse.
  template <class Handle>
  void leave(Handle& h) {
    h.prepare_leave();
    if (h.limbo_.count > 0) {
      if (!bg_.active) h.reclaim_on_leave();
      if (donate_limbo(h.limbo_, mailbox_) > 0) {
        if (bg_.active) bg_.thread.ring();
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

  const SmrConfig& config() const noexcept { return cfg_; }
  NodePool& pool() noexcept { return pool_; }
  // The retire/free books: each handle's counts (HandleCore::count_retire/
  // count_reclaimed) summed over every record ever created, plus the nodes
  // freed by domain teardown.  Zero when the domain does not track stats.
  // Safe while workers run: approximate then (frees are summed before
  // retires, so pending lags but never reads negative), exact in
  // quiescence.  O(registry records) per read.
  SmrCounters counters() const noexcept {
    SmrCounters c;
    c.reclaimed = teardown_reclaimed_;
    for (const auto* r = registry_.head(); r != nullptr; r = r->next_record())
      c.reclaimed += r->handle.reclaimed_.load(std::memory_order_acquire);
    for (const auto* r = registry_.head(); r != nullptr; r = r->next_record())
      c.retired += r->handle.retired_.load(std::memory_order_relaxed);
    c.pending = static_cast<std::int64_t>(c.retired - c.reclaimed);
    return c;
  }
  std::int64_t pending_nodes() const noexcept { return counters().pending; }
  asymfence::Path fence_path() const noexcept { return fence_path_; }

  // Observability (DESIGN.md §8): the per-handle cell list and the
  // aggregated snapshot.
  obs::DomainStats& obs_stats() noexcept { return stats_obs_; }
  obs::StatsSnapshot stats() const {
    obs::StatsSnapshot s = stats_obs_.snapshot();
    s.enabled = SCOT_STATS != 0 && cfg_.track_stats;
    const SmrCounters c = counters();
    s.pending = c.pending;
    s.pool_bytes = pool_.total_chunk_bytes();
    s.retired_total = c.retired;
    s.reclaimed_total = c.reclaimed;
    // The cell-side retire/reclaim counts are the same books, minus the
    // teardown frees (no scan made those).
    if (s.enabled) {
      s.retires = c.retired;
      s.nodes_reclaimed = c.reclaimed - teardown_reclaimed_;
    }
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
        fence_path_(asymfence::resolve(cfg.asymmetric_fences)),
        bg_(cfg.background_reclaim) {}
  ~DomainCore() = default;

  // End of the scheme constructor: join the reclaimer's handle and launch
  // the service thread if configured.  It then runs until shutdown().
  void start_configured() {
    if (!bg_.active) return;
    reclaimer_ =
        std::make_unique<DomainReclaimer<Domain>>(*static_cast<Domain*>(this));
    bg_.thread.start([this] { reclaimer_->round(); });
  }

  // Scheme destructor: stop the reclaimer and leave its handle, then free
  // every retired node still owned by a record or parked in the mailbox
  // (no thread is active any more).
  void shutdown() {
    if (reclaimer_) {
      bg_.thread.stop();
      reclaimer_->detach();
      reclaimer_.reset();
    }
    std::uint64_t freed = 0;
    for (auto* r = registry_.head(); r != nullptr; r = r->next_record())
      freed += free_chain(r->handle.limbo_.take(), r->index);
    freed += free_chain(mailbox_.take_all(), 0);
    if (cfg_.track_stats) teardown_reclaimed_ += freed;
  }

  SmrConfig cfg_;
  NodePool pool_;
  // The era/epoch clock (EBR, HE, IBR, Hyaline); HP and NR never tick it.
  // Every begin_op and era-scheme retire reads it, so it gets a line of its
  // own, shared only with the read-only fence path begin_op reads next to
  // it; nothing written per operation may land here.
  alignas(kFalseSharingRange) std::atomic<std::uint64_t> clock_{1};
  asymfence::Path fence_path_;
  // Declared before the registry: handles hold raw cell pointers, so the
  // cell list must be destroyed after the records are.
  alignas(kFalseSharingRange) obs::DomainStats stats_obs_;
  HandleRegistry<Domain> registry_;
  // leave() donations and, with the reclaimer on, full limbo lists.
  RetireMailbox mailbox_;
  ReclaimControl bg_;
  std::unique_ptr<DomainReclaimer<Domain>> reclaimer_;
  // Nodes shutdown() freed (written only there, with no thread active).
  std::uint64_t teardown_reclaimed_ = 0;

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
