// The one translation unit that instantiates the full scheme × structure
// cross product and registers it with the runtime registry.  Everything
// else in the tree resolves cells through AnyMapRegistry at runtime —
// adding a scheme or structure is one registration line here plus an enum
// value + name row in the matching registry header (DESIGN.md §6).
#include "core/any_map.hpp"

#include "core/core.hpp"

namespace scot {
namespace {

using K = AnyMap::Key;
using V = AnyMap::Value;

// Keep the registry's robustness column honest against the domain types.
static_assert(!NoReclaimDomain::kRobust == !scheme_info(SchemeId::kNR).robust);
static_assert(!EbrDomain::kRobust == !scheme_info(SchemeId::kEBR).robust);
static_assert(HpDomain::kRobust == scheme_info(SchemeId::kHP).robust);
static_assert(HpOptDomain::kRobust == scheme_info(SchemeId::kHPopt).robust);
static_assert(HeDomain::kRobust == scheme_info(SchemeId::kHE).robust);
static_assert(IbrDomain::kRobust == scheme_info(SchemeId::kIBR).robust);
static_assert(HyalineDomain::kRobust == scheme_info(SchemeId::kHLN).robust);

template <class Smr, class DS>
class TypedAnyMap final : public detail::AnyMapImpl {
  using Handle = typename Smr::Handle;

 public:
  explicit TypedAnyMap(const AnyMapOptions& options)
      : smr_(options.smr), ds_(make_ds(smr_, options)) {}

  void* join_handle() override { return &smr_.join(); }
  void leave_handle(void* h) override { smr_.leave(*static_cast<Handle*>(h)); }
  bool insert_with(void* h, K key, V value) override {
    return ds_->insert(*static_cast<Handle*>(h), key, value);
  }
  bool erase_with(void* h, K key) override {
    return ds_->erase(*static_cast<Handle*>(h), key);
  }
  bool contains_with(void* h, K key) override {
    return ds_->contains(*static_cast<Handle*>(h), key);
  }
  std::optional<V> get_with(void* h, K key) override {
    return ds_->get(*static_cast<Handle*>(h), key);
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
  static std::unique_ptr<DS> make_ds(Smr& smr, const AnyMapOptions& options) {
    if constexpr (requires { DS(smr, std::size_t{1}); }) {
      return std::make_unique<DS>(
          smr, options.hash_buckets != 0 ? options.hash_buckets : 64);
    } else {
      return std::make_unique<DS>(smr);
    }
  }

  // Declaration order is destruction order in reverse: the structure's
  // teardown deallocates through the domain, so the domain must outlive it.
  mutable Smr smr_;
  std::unique_ptr<DS> ds_;
};

template <class Smr, class DS>
std::unique_ptr<detail::AnyMapImpl> make_cell(const AnyMapOptions& options) {
  return std::make_unique<TypedAnyMap<Smr, DS>>(options);
}

template <class Smr>
void register_scheme(SchemeId id) {
  auto& reg = AnyMapRegistry::instance();
  reg.add(id, StructureId::kHMList, &make_cell<Smr, HarrisMichaelList<K, V, Smr>>);
  reg.add(id, StructureId::kHList, &make_cell<Smr, HarrisList<K, V, Smr>>);
  reg.add(id, StructureId::kHListWF,
          &make_cell<Smr, HarrisList<K, V, Smr, HarrisListWaitFreeTraits>>);
  reg.add(id, StructureId::kNMTree,
          &make_cell<Smr, NatarajanMittalTree<K, V, Smr>>);
  reg.add(id, StructureId::kHashMap, &make_cell<Smr, HashMap<K, V, Smr>>);
  reg.add(id, StructureId::kSkipList, &make_cell<Smr, SkipList<K, V, Smr>>);
  reg.add(id, StructureId::kSkipListEager,
          &make_cell<Smr, SkipList<K, V, Smr, SkipListEagerTraits>>);
  // Trait-ablation variants (bench_ablation_recovery / bench_ablation_unroll)
  // — registered like any other cell so the ablation binaries route through
  // run_case() and their JSON cells carry a real structure identity.
  reg.add(id, StructureId::kHListNoRecovery,
          &make_cell<Smr, HarrisList<K, V, Smr, HarrisListNoRecoveryTraits>>);
  reg.add(id, StructureId::kHListSimple,
          &make_cell<Smr, HarrisList<K, V, Smr, HarrisListSimpleTraits>>);
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

std::optional<AnyMap> AnyMap::make(SchemeId scheme, StructureId structure,
                                   const AnyMapOptions& options) {
  // ODR-use the registrar so linking make() always pulls the registrations.
  (void)kRegistered;
  const AnyMapRegistry::Factory factory =
      AnyMapRegistry::instance().find(scheme, structure);
  if (factory == nullptr) return std::nullopt;
  return AnyMap(scheme, structure, options.smr.max_threads, factory(options));
}

}  // namespace scot
