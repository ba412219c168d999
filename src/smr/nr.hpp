// NR: the "no reclamation" baseline (leak memory).
//
// The paper's throughput figures include NR as the practical upper bound for
// performance: retirement is a counter bump and nothing is ever reclaimed.
// Interestingly the paper observes that EBR (and others) can *beat* NR when
// recycling is cheaper than fresh allocation — with this library's pool the
// same effect reproduces, because NR always takes the carve path while the
// reclaiming schemes hit their thread-local free lists.
//
// NR is also the smallest client of the shared domain skeleton
// (smr/domain_core.hpp): with no reservations and no limbo lists, the
// scheme is its handle's no-op protection calls plus a counting retire().
// Having nothing to reclaim, it never starts a background reclaimer.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/stats.hpp"
#include "smr/domain_core.hpp"

namespace scot {

class NoReclaimDomain : public DomainCore<NoReclaimDomain> {
 public:
  static constexpr const char* kName = "NR";
  static constexpr bool kRobust = false;

  class Handle : public HandleCore<NoReclaimDomain, Handle> {
   public:
    using HandleCore::HandleCore;
    using HandleCore::retire;  // typed retire(Protected<T>)

    void begin_op() noexcept {}
    void end_op() noexcept {}

    // `Src` is std::atomic<P> or StableAtomic<P> (pool-recycled link words).
    template <class Src, class P = typename Src::value_type>
    P protect(const Src& src, unsigned /*idx*/) noexcept {
      return src.load(std::memory_order_acquire);
    }
    template <class T>
    void publish(T* /*p*/, unsigned /*idx*/) noexcept {}
    void dup(unsigned /*i*/, unsigned /*j*/) noexcept {}

    static constexpr bool op_valid() noexcept { return true; }
    void revalidate_op() noexcept {}

    void retire(ReclaimNode* n) noexcept {
      n->debug_state = kNodeRetired;
      count_retire();
    }
  };

  explicit NoReclaimDomain(SmrConfig cfg = {}) : DomainCore(cfg) {}
};

}  // namespace scot
