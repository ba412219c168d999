// scot::AnyContainer — the type-erased facade over the scheme × container
// cross product (queues, stacks, deques), plus the per-concept wrappers
// scot::AnyQueue / scot::AnyStack / scot::AnyDeque.
//
// Mirror of scot::AnyMap (core/any_map.hpp) for the queue/stack/deque
// concept: the scheme and the structure are runtime values resolved through
// AnyContainerRegistry, virtual dispatch sits at operation granularity, and
// the fully typed operation — protect() fast path included — runs inside.
//
// The erased op surface is the *union* of the three shapes: push/pop at
// either end of a uint64 payload.  Each structure maps its own ops onto the
// ends it supports and reports `false` / nullopt for the ends it does not
// (MSQueue: push_back + pop_front; TreiberStack: push_front + pop_front;
// Deque: all four).  The per-concept wrappers then narrow the surface back
// to the familiar names (enqueue/dequeue, push/pop, push_left/...), with
// make() checking the requested StructureId against its ContainerKind so a
// stack cannot be opened as a queue.
//
// Threading contract: identical to AnyMap — one `Session` per worker thread
// (dynamic join/leave, no thread cap).
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

struct AnyContainerOptions {
  SmrConfig smr;  // domain configuration (max_threads, ...)
};

namespace detail {

// The abstract implementation the registry factories produce.  One concrete
// TypedAnyContainer<Smr, DS> per registered cell lives in
// src/core/any_container.cpp.
class AnyContainerImpl {
 public:
  virtual ~AnyContainerImpl() = default;
  // Session surface (opaque joined handle; see AnyMapImpl).  Union of the
  // three shapes; unsupported ends return false / nullopt.
  virtual void* join_handle() = 0;
  virtual void leave_handle(void* h) = 0;
  virtual bool push_front_with(void* h, std::uint64_t value) = 0;
  virtual bool push_back_with(void* h, std::uint64_t value) = 0;
  virtual std::optional<std::uint64_t> pop_front_with(void* h) = 0;
  virtual std::optional<std::uint64_t> pop_back_with(void* h) = 0;
  virtual std::size_t size_unsafe() const = 0;
  virtual std::int64_t pending_nodes() const = 0;
  virtual std::uint64_t restarts() const = 0;
  virtual std::uint64_t recoveries() const = 0;
  virtual unsigned active_handles() const = 0;
  virtual std::size_t total_handle_records() const = 0;
  virtual obs::StatsSnapshot stats() const = 0;
};

}  // namespace detail

class AnyContainer {
 public:
  using Value = std::uint64_t;

  // Builds the (scheme, structure) cell through the runtime registry.
  // Returns nullopt for unregistered cells (anything whose ContainerKind is
  // not kQueue/kStack/kDeque).  Defined in src/core/any_container.cpp, the
  // only TU that pays for the cross product's template instantiations.
  static std::optional<AnyContainer> make(
      SchemeId scheme, StructureId structure,
      const AnyContainerOptions& options = {});

  AnyContainer(AnyContainer&&) = default;
  AnyContainer& operator=(AnyContainer&&) = default;

  // One thread's membership in the container's reclamation domain; see
  // AnyMap::Session for the contract (move-only, one per thread).
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

    bool push_front(Value value) { return impl_->push_front_with(h_, value); }
    bool push_back(Value value) { return impl_->push_back_with(h_, value); }
    std::optional<Value> pop_front() { return impl_->pop_front_with(h_); }
    std::optional<Value> pop_back() { return impl_->pop_back_with(h_); }

    explicit operator bool() const noexcept { return impl_ != nullptr; }

    // Leaves the domain early (idempotent).
    void reset() noexcept {
      if (impl_ != nullptr) {
        impl_->leave_handle(h_);
        impl_ = nullptr;
      }
    }

   private:
    friend class AnyContainer;
    explicit Session(detail::AnyContainerImpl* impl)
        : impl_(impl), h_(impl->join_handle()) {}

    detail::AnyContainerImpl* impl_ = nullptr;
    void* h_ = nullptr;  // the domain's Handle, type-erased
  };

  // Opens a session for the calling thread.  The container must outlive it.
  Session session() { return Session(impl_.get()); }

  // --- observers (same meanings as AnyMap's) -------------------------------
  std::size_t size_unsafe() const { return impl_->size_unsafe(); }
  std::int64_t pending_nodes() const { return impl_->pending_nodes(); }
  std::uint64_t restarts() const { return impl_->restarts(); }
  std::uint64_t recoveries() const { return impl_->recoveries(); }
  unsigned active_handles() const { return impl_->active_handles(); }
  std::size_t total_handle_records() const {
    return impl_->total_handle_records();
  }
  obs::StatsSnapshot stats() const { return impl_->stats(); }

  SchemeId scheme() const { return scheme_; }
  StructureId structure() const { return structure_; }
  ContainerKind kind() const { return container_kind(structure_); }
  const char* scheme_name() const { return scot::scheme_name(scheme_); }
  const char* structure_name() const {
    return scot::structure_name(structure_);
  }
  unsigned max_threads() const { return max_threads_; }

 private:
  AnyContainer(SchemeId scheme, StructureId structure, unsigned max_threads,
               std::unique_ptr<detail::AnyContainerImpl> impl)
      : scheme_(scheme),
        structure_(structure),
        max_threads_(max_threads),
        impl_(std::move(impl)) {}

  SchemeId scheme_;
  StructureId structure_;
  unsigned max_threads_;
  std::unique_ptr<detail::AnyContainerImpl> impl_;
};

// --- per-concept wrappers ---------------------------------------------------
// Thin views that narrow AnyContainer's union surface back to each concept's
// vocabulary.  make() validates the StructureId's ContainerKind, so the type
// of the facade in hand always tells you the ordering discipline you got.

class AnyQueue {
 public:
  using Value = AnyContainer::Value;

  static std::optional<AnyQueue> make(SchemeId scheme,
                                      StructureId structure = StructureId::kMSQueue,
                                      const AnyContainerOptions& options = {}) {
    if (container_kind(structure) != ContainerKind::kQueue) return std::nullopt;
    auto c = AnyContainer::make(scheme, structure, options);
    if (!c) return std::nullopt;
    return AnyQueue(std::move(*c));
  }

  class Session {
   public:
    Session() = default;
    bool enqueue(Value v) { return s_.push_back(v); }
    std::optional<Value> dequeue() { return s_.pop_front(); }
    explicit operator bool() const noexcept { return bool(s_); }
    void reset() noexcept { s_.reset(); }

   private:
    friend class AnyQueue;
    explicit Session(AnyContainer::Session s) : s_(std::move(s)) {}
    AnyContainer::Session s_;
  };

  Session session() { return Session(c_.session()); }

  AnyContainer& container() { return c_; }
  const AnyContainer& container() const { return c_; }
  std::size_t size_unsafe() const { return c_.size_unsafe(); }
  std::uint64_t restarts() const { return c_.restarts(); }
  std::uint64_t recoveries() const { return c_.recoveries(); }

 private:
  explicit AnyQueue(AnyContainer c) : c_(std::move(c)) {}
  AnyContainer c_;
};

class AnyStack {
 public:
  using Value = AnyContainer::Value;

  static std::optional<AnyStack> make(
      SchemeId scheme, StructureId structure = StructureId::kTreiberStack,
      const AnyContainerOptions& options = {}) {
    if (container_kind(structure) != ContainerKind::kStack) return std::nullopt;
    auto c = AnyContainer::make(scheme, structure, options);
    if (!c) return std::nullopt;
    return AnyStack(std::move(*c));
  }

  class Session {
   public:
    Session() = default;
    bool push(Value v) { return s_.push_front(v); }
    std::optional<Value> pop() { return s_.pop_front(); }
    explicit operator bool() const noexcept { return bool(s_); }
    void reset() noexcept { s_.reset(); }

   private:
    friend class AnyStack;
    explicit Session(AnyContainer::Session s) : s_(std::move(s)) {}
    AnyContainer::Session s_;
  };

  Session session() { return Session(c_.session()); }

  AnyContainer& container() { return c_; }
  const AnyContainer& container() const { return c_; }
  std::size_t size_unsafe() const { return c_.size_unsafe(); }
  std::uint64_t restarts() const { return c_.restarts(); }
  std::uint64_t recoveries() const { return c_.recoveries(); }

 private:
  explicit AnyStack(AnyContainer c) : c_(std::move(c)) {}
  AnyContainer c_;
};

class AnyDeque {
 public:
  using Value = AnyContainer::Value;

  static std::optional<AnyDeque> make(
      SchemeId scheme, StructureId structure = StructureId::kDeque,
      const AnyContainerOptions& options = {}) {
    if (container_kind(structure) != ContainerKind::kDeque) return std::nullopt;
    auto c = AnyContainer::make(scheme, structure, options);
    if (!c) return std::nullopt;
    return AnyDeque(std::move(*c));
  }

  class Session {
   public:
    Session() = default;
    bool push_left(Value v) { return s_.push_front(v); }
    bool push_right(Value v) { return s_.push_back(v); }
    std::optional<Value> pop_left() { return s_.pop_front(); }
    std::optional<Value> pop_right() { return s_.pop_back(); }
    explicit operator bool() const noexcept { return bool(s_); }
    void reset() noexcept { s_.reset(); }

   private:
    friend class AnyDeque;
    explicit Session(AnyContainer::Session s) : s_(std::move(s)) {}
    AnyContainer::Session s_;
  };

  Session session() { return Session(c_.session()); }

  AnyContainer& container() { return c_; }
  const AnyContainer& container() const { return c_; }
  std::size_t size_unsafe() const { return c_.size_unsafe(); }
  std::uint64_t restarts() const { return c_.restarts(); }
  std::uint64_t recoveries() const { return c_.recoveries(); }

 private:
  explicit AnyDeque(AnyContainer c) : c_(std::move(c)) {}
  AnyContainer c_;
};

}  // namespace scot
