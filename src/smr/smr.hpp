// Umbrella header for the reclamation schemes, plus the one compile-time
// concept the data structures are written against (DESIGN.md §6).
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>

#include "common/stable_atomic.hpp"
#include "smr/ebr.hpp"
#include "smr/guard.hpp"
#include "smr/he.hpp"
#include "smr/hp.hpp"
#include "smr/hyaline.hpp"
#include "smr/ibr.hpp"
#include "smr/nr.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot {

// A reclamation domain and its per-thread Handle.
//
//  * Handle: indexed protection (protect/publish/dup), operation brackets
//    and Hyaline-style validity polling, retirement.  Indexed protection
//    maps to real slots for HP/HE and to no-ops for EBR/IBR/Hyaline/NR, so
//    one SCOT implementation serves all schemes (DESIGN.md §4).  The typed
//    guard surface (smr/guard.hpp) is a zero-cost veneer over these calls.
//  * Domain: dynamic membership — join()/leave() at any point in the
//    domain's lifetime; scoped_handle(d) is the RAII spelling (DESIGN.md
//    §7) — the background-reclaimer lifecycle (a no-op for NR, DESIGN.md
//    §9) and the observers.
//
// Every scheme gets the domain half from DomainCore (smr/domain_core.hpp).
template <class D>
concept SmrDomain =
    requires(D d, typename D::Handle& h, const std::atomic<ReclaimNode*>& src,
             ReclaimNode* n, unsigned idx, TraversalGuard<typename D::Handle>& g,
             ProtectionSlot<typename D::Handle, ReclaimNode> slot,
             const StableAtomic<marked_ptr<ReclaimNode>>& link,
             Protected<ReclaimNode> p) {
      { D::kName } -> std::convertible_to<const char*>;
      { D::kRobust } -> std::convertible_to<bool>;
      h.begin_op();
      h.end_op();
      { h.protect(src, idx) } -> std::same_as<ReclaimNode*>;
      h.publish(n, idx);
      h.dup(idx, idx);
      { h.op_valid() } -> std::convertible_to<bool>;
      h.revalidate_op();
      h.retire(n);
      h.retire(p);
      { g.handle() } -> std::same_as<typename D::Handle&>;
      { g.valid() } -> std::convertible_to<bool>;
      g.revalidate();
      { g.template slot<ReclaimNode>() } ->
          std::same_as<ProtectionSlot<typename D::Handle, ReclaimNode>>;
      { slot.protect(link) } -> std::same_as<Protected<ReclaimNode>>;
      slot.publish(n);
      slot.dup_from(slot);
      { d.join() } -> std::same_as<typename D::Handle&>;
      d.leave(h);
      { d.active_handles() } -> std::convertible_to<unsigned>;
      { d.total_handle_records() } -> std::convertible_to<std::size_t>;
      { d.registry() } -> std::same_as<const HandleRegistry<D>&>;
      { d.config() } -> std::convertible_to<const SmrConfig&>;
      { d.pending_nodes() } -> std::convertible_to<std::int64_t>;
      { d.restarts() } -> std::convertible_to<std::uint64_t>;
      { d.recoveries() } -> std::convertible_to<std::uint64_t>;
      { d.background_active() } -> std::convertible_to<bool>;
      { d.background_stats() } -> std::same_as<BgReclaimStats>;
      d.start_background_reclaimer();
      d.stop_background_reclaimer();
    };

static_assert(SmrDomain<NoReclaimDomain>);
static_assert(SmrDomain<EbrDomain>);
static_assert(SmrDomain<HpDomain>);
static_assert(SmrDomain<HpOptDomain>);
static_assert(SmrDomain<HeDomain>);
static_assert(SmrDomain<IbrDomain>);
static_assert(SmrDomain<HyalineDomain>);

}  // namespace scot
