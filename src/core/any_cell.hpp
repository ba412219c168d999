// The type-erased skeleton shared by scot::AnyMap, scot::AnyKv and
// scot::AnyContainer.  A *cell* is one (scheme, structure) pair: a domain
// and the structure built on it, behind a virtual interface.  This header
// holds the part every concept has in common:
//
//   * AnyCellImpl — the domain half of the interface: join/leave a handle
//     and the domain observers;
//   * TypedCell<Base, Smr> — implements that half for one domain type;
//   * SessionCore<Impl> — one joined handle, move-only, left on reset or
//     destruction;
//   * AnyCell<Impl> — the facade base that owns the cell and forwards the
//     observers.
//
// Each concept adds only its own operations: an interface deriving from
// AnyCellImpl, a typed cell deriving from TypedCell, a Session deriving from
// SessionCore, and a facade deriving from AnyCell.  An operation is one
// virtual call on the stored handle; inside it the fully typed structure
// runs, protect() fast path included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/registry.hpp"
#include "obs/stats.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot::detail {

class AnyCellImpl {
 public:
  AnyCellImpl() = default;
  AnyCellImpl(const AnyCellImpl&) = delete;
  AnyCellImpl& operator=(const AnyCellImpl&) = delete;
  virtual ~AnyCellImpl() = default;

  // A handle crosses the type-erased boundary as an opaque pointer; the
  // concept's *_with operations run on it.
  virtual void* join_handle() = 0;
  virtual void leave_handle(void* h) = 0;
  virtual std::int64_t pending_nodes() const = 0;
  virtual std::uint64_t restarts() const = 0;
  virtual std::uint64_t recoveries() const = 0;
  virtual unsigned active_handles() const = 0;
  virtual std::size_t total_handle_records() const = 0;
  virtual obs::StatsSnapshot stats() const = 0;
};

// Base is the concept's interface.  The concept's typed cell derives from
// this and declares its structure after it, so the structure — whose
// teardown deallocates through the domain — is destroyed first.
template <class Base, class Smr>
class TypedCell : public Base {
 public:
  using Handle = typename Smr::Handle;

  explicit TypedCell(const SmrConfig& config) : smr_(config) {}

  void* join_handle() final { return &smr_.join(); }
  void leave_handle(void* h) final { smr_.leave(handle(h)); }
  std::int64_t pending_nodes() const final { return smr_.pending_nodes(); }
  std::uint64_t restarts() const final { return smr_.restarts(); }
  std::uint64_t recoveries() const final { return smr_.recoveries(); }
  unsigned active_handles() const final { return smr_.active_handles(); }
  std::size_t total_handle_records() const final {
    return smr_.total_handle_records();
  }
  obs::StatsSnapshot stats() const final { return smr_.stats(); }

 protected:
  static Handle& handle(void* h) { return *static_cast<Handle*>(h); }

  mutable Smr smr_;
};

// One thread's membership in a cell's domain: joins the dynamic handle
// registry on construction, leaves (donating any pending retires for
// adoption) on destruction.  Move-only; one per thread, do not share.  No
// capacity is pinned: thousands of short-lived workers may open and close
// sessions against one cell.
template <class Impl>
class SessionCore {
 public:
  SessionCore() = default;
  SessionCore(SessionCore&& o) noexcept
      : impl_(std::exchange(o.impl_, nullptr)), h_(o.h_) {}
  SessionCore& operator=(SessionCore&& o) noexcept {
    if (this != &o) {
      reset();
      impl_ = std::exchange(o.impl_, nullptr);
      h_ = o.h_;
    }
    return *this;
  }
  ~SessionCore() { reset(); }

  explicit operator bool() const noexcept { return impl_ != nullptr; }

  // Leaves the domain early (idempotent).
  void reset() noexcept {
    if (impl_ != nullptr) {
      impl_->leave_handle(h_);
      impl_ = nullptr;
    }
  }

 protected:
  explicit SessionCore(Impl* impl) : impl_(impl), h_(impl->join_handle()) {}

  Impl* impl_ = nullptr;
  void* h_ = nullptr;  // the domain's Handle, type-erased
};

template <class Impl>
class AnyCell {
 public:
  // Domain-wide retired-but-unreclaimed gauge (the paper's Figures 10-12).
  std::int64_t pending_nodes() const { return impl_->pending_nodes(); }
  // Table 2 telemetry, summed over all handle records ever created (the
  // counters are cumulative across join/leave reuse).
  std::uint64_t restarts() const { return impl_->restarts(); }
  std::uint64_t recoveries() const { return impl_->recoveries(); }
  // Handle-registry gauges: sessions currently open, and the high-water
  // record count.
  unsigned active_handles() const { return impl_->active_handles(); }
  std::size_t total_handle_records() const {
    return impl_->total_handle_records();
  }
  // Aggregated observability snapshot of the domain (DESIGN.md §8):
  // retire/scan/barrier/orphan counters, limbo peak, scan-latency
  // percentiles.  Zeroed (enabled=false) when stats are compiled out or the
  // domain runs with track_stats=false.
  obs::StatsSnapshot stats() const { return impl_->stats(); }

  SchemeId scheme() const { return scheme_; }
  StructureId structure() const { return structure_; }
  const char* scheme_name() const { return scot::scheme_name(scheme_); }
  const char* structure_name() const {
    return scot::structure_name(structure_);
  }
  unsigned max_threads() const { return max_threads_; }

 protected:
  AnyCell(SchemeId scheme, StructureId structure, unsigned max_threads,
          std::unique_ptr<Impl> impl)
      : impl_(std::move(impl)),
        scheme_(scheme),
        structure_(structure),
        max_threads_(max_threads) {}

  std::unique_ptr<Impl> impl_;

 private:
  SchemeId scheme_;
  StructureId structure_;
  unsigned max_threads_;
};

}  // namespace scot::detail
