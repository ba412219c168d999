// scot::AnyKv — the string-keyed sibling of scot::AnyMap: a type-erased
// facade over the scheme × kv-structure cross product, driven by
// AnyKvRegistry (core/registry.hpp).  One AnyKv is one KvStore shard; the
// sharded facade lives in kv/kv_store.hpp.
//
// As with AnyMap, sessions are the only way in: each worker thread opens
// `kv.session()` (joins the shard domain's handle registry) and operates
// through it with string_view keys and values; the value bytes are copied
// into pooled blob cells on put and copied out on get.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "core/registry.hpp"
#include "obs/stats.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot {

struct AnyKvOptions {
  SmrConfig smr;  // the shard domain's configuration (inherited per shard)
  std::size_t initial_buckets = 16;
  std::size_t max_buckets = std::size_t{1} << 20;
  unsigned max_load_factor = 4;
};

namespace detail {

// The abstract shard implementation the registry factories produce.  One
// concrete TypedAnyKv<Smr> per registered cell lives in src/kv/any_kv.cpp.
class AnyKvImpl {
 public:
  virtual ~AnyKvImpl() = default;
  virtual void* join_handle() = 0;
  virtual void leave_handle(void* h) = 0;
  // true = inserted a new key, false = updated an existing one.  Keys or
  // values beyond the pooled-cell ceiling (put_ok() == false) are rejected
  // as a no-op returning false; callers that care probe put_ok() first.
  virtual bool put_with(void* h, std::string_view key,
                        std::string_view value) = 0;
  virtual bool erase_with(void* h, std::string_view key) = 0;
  virtual bool contains_with(void* h, std::string_view key) = 0;
  virtual bool get_with(void* h, std::string_view key, std::string* out) = 0;
  virtual bool put_ok(std::string_view key, std::string_view value) const = 0;
  virtual std::size_t size_unsafe() = 0;
  virtual std::int64_t pending_nodes() const = 0;
  virtual std::uint64_t restarts() const = 0;
  virtual std::uint64_t recoveries() const = 0;
  virtual unsigned active_handles() const = 0;
  virtual obs::StatsSnapshot stats() const = 0;
  // Resize observability (kv_store_test and bench_kv assert on these).
  virtual std::size_t bucket_count() const = 0;
  virtual std::uint64_t migrated_buckets() const = 0;
  virtual std::uint64_t pending_migration() const = 0;
};

}  // namespace detail

class AnyKv {
 public:
  // Builds the (scheme, structure) shard cell through the runtime registry.
  // Returns nullopt for unregistered cells.  Defined in src/kv/any_kv.cpp,
  // the only TU that pays for the scheme cross product.
  static std::optional<AnyKv> make(SchemeId scheme, StructureId structure,
                                   const AnyKvOptions& options = {});

  AnyKv(AnyKv&&) = default;
  AnyKv& operator=(AnyKv&&) = default;

  // One thread's membership in the shard's reclamation domain.  Move-only;
  // one per thread, do not share.
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

    // Upsert; returns true when the key was newly inserted (false for an
    // update — or for an oversize pair, see AnyKv::put_ok).
    bool put(std::string_view key, std::string_view value) {
      return impl_->put_with(h_, key, value);
    }
    bool erase(std::string_view key) { return impl_->erase_with(h_, key); }
    bool contains(std::string_view key) {
      return impl_->contains_with(h_, key);
    }
    bool get(std::string_view key, std::string* out) {
      return impl_->get_with(h_, key, out);
    }
    std::optional<std::string> get(std::string_view key) {
      std::string out;
      if (!impl_->get_with(h_, key, &out)) return std::nullopt;
      return out;
    }

    explicit operator bool() const noexcept { return impl_ != nullptr; }

    // Leaves the domain early (idempotent).
    void reset() noexcept {
      if (impl_ != nullptr) {
        impl_->leave_handle(h_);
        impl_ = nullptr;
      }
    }

   private:
    friend class AnyKv;
    friend class KvStore;
    explicit Session(detail::AnyKvImpl* impl)
        : impl_(impl), h_(impl->join_handle()) {}

    detail::AnyKvImpl* impl_ = nullptr;
    void* h_ = nullptr;  // the domain's Handle, type-erased
  };

  // Opens a session for the calling thread.  The AnyKv must outlive it.
  Session session() { return Session(impl_.get()); }

  // True when key and value fit the pooled-cell ceiling (~4KB each).
  bool put_ok(std::string_view key, std::string_view value) const {
    return impl_->put_ok(key, value);
  }

  // --- observers -----------------------------------------------------------
  // Quiesces in-flight bucket migrations, then iterates (tests only).
  std::size_t size_unsafe() { return impl_->size_unsafe(); }
  std::int64_t pending_nodes() const { return impl_->pending_nodes(); }
  std::uint64_t restarts() const { return impl_->restarts(); }
  std::uint64_t recoveries() const { return impl_->recoveries(); }
  unsigned active_handles() const { return impl_->active_handles(); }
  obs::StatsSnapshot stats() const { return impl_->stats(); }
  std::size_t bucket_count() const { return impl_->bucket_count(); }
  std::uint64_t migrated_buckets() const { return impl_->migrated_buckets(); }
  std::uint64_t pending_migration() const {
    return impl_->pending_migration();
  }

  SchemeId scheme() const { return scheme_; }
  StructureId structure() const { return structure_; }
  const char* scheme_name() const { return scot::scheme_name(scheme_); }
  const char* structure_name() const {
    return scot::structure_name(structure_);
  }

 private:
  friend class KvStore;
  AnyKv(SchemeId scheme, StructureId structure,
        std::unique_ptr<detail::AnyKvImpl> impl)
      : scheme_(scheme), structure_(structure), impl_(std::move(impl)) {}

  SchemeId scheme_;
  StructureId structure_;
  std::unique_ptr<detail::AnyKvImpl> impl_;
};

}  // namespace scot
