// scot::AnyMap — the type-erased facade over the scheme × structure cross
// product, driven by the runtime registry (core/registry.hpp).
//
// AnyMap lets callers pick the reclamation scheme and the data structure as
// *runtime values* — the capability the per-scheme bench translation units
// used to fake with 7 copies of the same template instantiation.  Virtual
// dispatch sits only at operation granularity (one indirect call per
// insert/erase/contains/get); inside an operation the fully typed traversal
// runs, protect() included, so the PR 3 asymmetric-fence fast path is
// untouched (acceptance-checked by bench_micro_smr against BENCH_pr3.json).
//
// Threading contract.  Each worker thread opens an `AnyMap::Session`
// (`map.session()`), which joins the underlying domain's dynamic handle
// registry, and operates through it — no fixed thread cap, threads may
// come and go for the life of the map.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/registry.hpp"
#include "obs/stats.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot {

struct AnyMapOptions {
  SmrConfig smr;                 // domain configuration (max_threads, ...)
  std::size_t hash_buckets = 0;  // HashMap cells only; 0 = 64 buckets
};

namespace detail {

// The abstract implementation the registry factories produce.  One concrete
// TypedAnyMap<Smr, DS> per registered cell lives in src/core/any_map.cpp.
class AnyMapImpl {
 public:
  virtual ~AnyMapImpl() = default;
  // A handle is joined/left through the type-erased boundary as an opaque
  // pointer; the *_with calls run the operation on it.
  virtual void* join_handle() = 0;
  virtual void leave_handle(void* h) = 0;
  virtual bool insert_with(void* h, std::uint64_t key, std::uint64_t value) = 0;
  virtual bool erase_with(void* h, std::uint64_t key) = 0;
  virtual bool contains_with(void* h, std::uint64_t key) = 0;
  virtual std::optional<std::uint64_t> get_with(void* h, std::uint64_t key) = 0;
  virtual std::size_t size_unsafe() const = 0;
  virtual std::int64_t pending_nodes() const = 0;
  virtual std::uint64_t restarts() const = 0;
  virtual std::uint64_t recoveries() const = 0;
  virtual unsigned active_handles() const = 0;
  virtual std::size_t total_handle_records() const = 0;
  virtual obs::StatsSnapshot stats() const = 0;
};

}  // namespace detail

class AnyMap {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  // Builds the (scheme, structure) cell through the runtime registry.
  // Returns nullopt for unregistered cells (e.g. StructureId::kNone).
  // Defined in src/core/any_map.cpp, the only TU that pays for the cross
  // product's template instantiations.
  static std::optional<AnyMap> make(SchemeId scheme, StructureId structure,
                                    const AnyMapOptions& options = {});

  AnyMap(AnyMap&&) = default;
  AnyMap& operator=(AnyMap&&) = default;

  // One thread's membership in the map's reclamation domain: joins the
  // dynamic handle registry on construction, leaves (donating any pending
  // retires for adoption) on destruction.  Move-only; use one Session per
  // thread and do not share it:
  //
  //   auto s = map.session();
  //   s.insert(k, v);  s.contains(k);  ...
  //
  // The session pins no capacity: thousands of short-lived workers may
  // open and close sessions against one map.
  class Session {
   public:
    Session() = default;
    Session(Session&& o) noexcept
        : impl_(std::exchange(o.impl_, nullptr)), h_(o.h_) {}
    Session& operator=(Session&& o) noexcept {
      if (this != &o) {
        reset();
        impl_ = std::exchange(o.impl_, nullptr);
        h_ = o.h_;
      }
      return *this;
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() { reset(); }

    bool insert(Key key, Value value = {}) {
      return impl_->insert_with(h_, key, value);
    }
    bool erase(Key key) { return impl_->erase_with(h_, key); }
    bool contains(Key key) { return impl_->contains_with(h_, key); }
    std::optional<Value> get(Key key) { return impl_->get_with(h_, key); }

    explicit operator bool() const noexcept { return impl_ != nullptr; }

    // Leaves the domain early (idempotent).
    void reset() noexcept {
      if (impl_ != nullptr) {
        impl_->leave_handle(h_);
        impl_ = nullptr;
      }
    }

   private:
    friend class AnyMap;
    explicit Session(detail::AnyMapImpl* impl)
        : impl_(impl), h_(impl->join_handle()) {}

    detail::AnyMapImpl* impl_ = nullptr;
    void* h_ = nullptr;  // the domain's Handle, type-erased
  };

  // Opens a session for the calling thread.  The map must outlive it.
  Session session() { return Session(impl_.get()); }

  // --- observers -----------------------------------------------------------
  // Single-threaded full iteration over the structure (tests/teardown only).
  std::size_t size_unsafe() const { return impl_->size_unsafe(); }
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
  // Aggregated observability snapshot of the underlying domain (DESIGN.md
  // §8): retire/scan/barrier/orphan counters, limbo peak, scan-latency
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

 private:
  AnyMap(SchemeId scheme, StructureId structure, unsigned max_threads,
         std::unique_ptr<detail::AnyMapImpl> impl)
      : scheme_(scheme),
        structure_(structure),
        max_threads_(max_threads),
        impl_(std::move(impl)) {}

  SchemeId scheme_;
  StructureId structure_;
  unsigned max_threads_;
  std::unique_ptr<detail::AnyMapImpl> impl_;
};

}  // namespace scot
