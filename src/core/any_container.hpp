// scot::AnyContainer — the type-erased facade over the scheme × container
// cross product (queues, stacks, deques), plus the per-concept wrappers
// scot::AnyQueue / scot::AnyStack / scot::AnyDeque.
//
// Sibling of scot::AnyMap (core/any_map.hpp) for the queue/stack/deque
// concept, on the same skeleton (core/any_cell.hpp): the scheme and the
// structure are runtime values, virtual dispatch sits at operation
// granularity, and the fully typed operation — protect() fast path
// included — runs inside.
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
#include <optional>
#include <utility>

#include "core/any_cell.hpp"
#include "core/registry.hpp"
#include "smr/registry.hpp"
#include "smr/smr_config.hpp"

namespace scot {

struct AnyContainerOptions {
  SmrConfig smr;  // domain configuration (max_threads, ...)
};

namespace detail {

// One concrete TypedAnyContainer<Smr, DS> per cell lives in
// src/core/any_container.cpp.  Union of the three shapes; unsupported ends
// return false / nullopt.
class AnyContainerImpl : public AnyCellImpl {
 public:
  virtual bool push_front_with(void* h, std::uint64_t value) = 0;
  virtual bool push_back_with(void* h, std::uint64_t value) = 0;
  virtual std::optional<std::uint64_t> pop_front_with(void* h) = 0;
  virtual std::optional<std::uint64_t> pop_back_with(void* h) = 0;
  virtual std::size_t size_unsafe() const = 0;
};

}  // namespace detail

class AnyContainer : public detail::AnyCell<detail::AnyContainerImpl> {
 public:
  using Value = std::uint64_t;

  // Builds the (scheme, structure) cell.  Returns nullopt for anything whose
  // ContainerKind is not kQueue/kStack/kDeque.  Defined in
  // src/core/any_container.cpp, the only TU that pays for the cross
  // product's template instantiations.
  static std::optional<AnyContainer> make(
      SchemeId scheme, StructureId structure,
      const AnyContainerOptions& options = {});

  // One thread's membership in the container's domain
  // (detail::SessionCore).
  class Session : public detail::SessionCore<detail::AnyContainerImpl> {
   public:
    Session() = default;

    bool push_front(Value value) { return impl_->push_front_with(h_, value); }
    bool push_back(Value value) { return impl_->push_back_with(h_, value); }
    std::optional<Value> pop_front() { return impl_->pop_front_with(h_); }
    std::optional<Value> pop_back() { return impl_->pop_back_with(h_); }

   private:
    friend class AnyContainer;
    explicit Session(detail::AnyContainerImpl* impl) : SessionCore(impl) {}
  };

  // Opens a session for the calling thread.  The container must outlive it.
  Session session() { return Session(impl_.get()); }

  std::size_t size_unsafe() const { return impl_->size_unsafe(); }
  ContainerKind kind() const { return container_kind(structure()); }

 private:
  using AnyCell::AnyCell;
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
