// The one translation unit that instantiates the scheme × container cross
// product (7 schemes × {MSQueue, TreiberStack, Deque}) and registers it with
// AnyContainerRegistry.  Mirror of src/core/any_map.cpp for the
// queue/stack/deque concept — adding a scheme or container structure is one
// registration line here plus the enum/name/kind rows in core/registry.hpp
// (DESIGN.md §11 has the multi-concept recipe).
#include "core/any_container.hpp"

#include "core/deque.hpp"
#include "core/ms_queue.hpp"
#include "core/treiber_stack.hpp"
#include "smr/smr.hpp"

namespace scot {
namespace {

using V = AnyContainer::Value;

// TypedAnyContainer maps the erased union surface (push/pop, either end)
// onto whichever ops the concrete structure exposes, detected structurally:
// queue = push_back/pop_front via enqueue/dequeue, stack = push_front/
// pop_front via push/pop, deque = all four.  Unsupported ends report
// false / nullopt instead of asserting so the facade stays total — the
// per-concept wrappers (AnyQueue/AnyStack/AnyDeque) keep callers off them.
template <class Smr, class DS>
class TypedAnyContainer final : public detail::AnyContainerImpl {
  using Handle = typename Smr::Handle;

 public:
  explicit TypedAnyContainer(const AnyContainerOptions& options)
      : smr_(options.smr), ds_(std::make_unique<DS>(smr_)) {}

  void* join_handle() override { return &smr_.join(); }
  void leave_handle(void* h) override { smr_.leave(*static_cast<Handle*>(h)); }
  bool push_front_with(void* h, V value) override {
    return do_push_front(*static_cast<Handle*>(h), value);
  }
  bool push_back_with(void* h, V value) override {
    return do_push_back(*static_cast<Handle*>(h), value);
  }
  std::optional<V> pop_front_with(void* h) override {
    return do_pop_front(*static_cast<Handle*>(h));
  }
  std::optional<V> pop_back_with(void* h) override {
    return do_pop_back(*static_cast<Handle*>(h));
  }

  std::size_t size_unsafe() const override { return ds_->size_unsafe(); }
  std::int64_t pending_nodes() const override { return smr_.pending_nodes(); }
  std::uint64_t restarts() const override { return smr_.restarts(); }
  std::uint64_t recoveries() const override { return smr_.recoveries(); }
  unsigned active_handles() const override { return smr_.active_handles(); }
  std::size_t total_handle_records() const override {
    return smr_.total_handle_records();
  }
  obs::StatsSnapshot stats() const override { return smr_.stats(); }

 private:
  // front = the stack top / queue head / deque left end.
  bool do_push_front(Handle& h, V value) {
    if constexpr (requires(DS& d) { d.push_left(h, value); }) {
      ds_->push_left(h, value);
      return true;
    } else if constexpr (requires(DS& d) { d.push(h, value); }) {
      ds_->push(h, value);
      return true;
    } else {
      (void)h;
      (void)value;
      return false;  // queues only grow at the back
    }
  }
  bool do_push_back(Handle& h, V value) {
    if constexpr (requires(DS& d) { d.push_right(h, value); }) {
      ds_->push_right(h, value);
      return true;
    } else if constexpr (requires(DS& d) { d.enqueue(h, value); }) {
      ds_->enqueue(h, value);
      return true;
    } else {
      (void)h;
      (void)value;
      return false;  // stacks only grow at the top
    }
  }
  std::optional<V> do_pop_front(Handle& h) {
    if constexpr (requires(DS& d) { d.pop_left(h); }) {
      return ds_->pop_left(h);
    } else if constexpr (requires(DS& d) { d.pop(h); }) {
      return ds_->pop(h);
    } else if constexpr (requires(DS& d) { d.dequeue(h); }) {
      return ds_->dequeue(h);
    } else {
      (void)h;
      return std::nullopt;
    }
  }
  std::optional<V> do_pop_back(Handle& h) {
    if constexpr (requires(DS& d) { d.pop_right(h); }) {
      return ds_->pop_right(h);
    } else {
      (void)h;
      return std::nullopt;  // queues and stacks only shrink at the front
    }
  }

  // Declaration order is destruction order in reverse: the structure's
  // teardown deallocates through the domain, so the domain must outlive it.
  mutable Smr smr_;
  std::unique_ptr<DS> ds_;
};

template <class Smr, class DS>
std::unique_ptr<detail::AnyContainerImpl> make_cell(
    const AnyContainerOptions& options) {
  return std::make_unique<TypedAnyContainer<Smr, DS>>(options);
}

template <class Smr>
void register_scheme(SchemeId id) {
  auto& reg = AnyContainerRegistry::instance();
  reg.add(id, StructureId::kMSQueue, &make_cell<Smr, MSQueue<V, Smr>>);
  reg.add(id, StructureId::kTreiberStack,
          &make_cell<Smr, TreiberStack<V, Smr>>);
  reg.add(id, StructureId::kDeque, &make_cell<Smr, Deque<V, Smr>>);
}

const bool kRegistered = [] {
  register_scheme<NoReclaimDomain>(SchemeId::kNR);
  register_scheme<EbrDomain>(SchemeId::kEBR);
  register_scheme<HpDomain>(SchemeId::kHP);
  register_scheme<HpOptDomain>(SchemeId::kHPopt);
  register_scheme<HeDomain>(SchemeId::kHE);
  register_scheme<IbrDomain>(SchemeId::kIBR);
  register_scheme<HyalineDomain>(SchemeId::kHLN);
  return true;
}();

}  // namespace

std::optional<AnyContainer> AnyContainer::make(
    SchemeId scheme, StructureId structure,
    const AnyContainerOptions& options) {
  // ODR-use the registrar so linking make() always pulls the registrations.
  (void)kRegistered;
  const AnyContainerRegistry::Factory factory =
      AnyContainerRegistry::instance().find(scheme, structure);
  if (factory == nullptr) return std::nullopt;
  return AnyContainer(scheme, structure, options.smr.max_threads,
                      factory(options));
}

}  // namespace scot
