// The one translation unit that instantiates the scheme × map-structure
// cross product.  make() picks the domain type through scot::with_domain
// (smr/smr.hpp) and the structure through the switch below — adding a
// structure is one case here plus an enum value + name + kind row in
// core/registry.hpp (DESIGN.md §6).
#include "core/any_map.hpp"

#include <type_traits>

#include "core/core.hpp"

namespace scot {
namespace {

using K = AnyMap::Key;
using V = AnyMap::Value;

template <class Smr, class DS>
class TypedAnyMap final : public detail::TypedCell<detail::AnyMapImpl, Smr> {
  using Base = detail::TypedCell<detail::AnyMapImpl, Smr>;
  using Base::handle;

 public:
  explicit TypedAnyMap(const AnyMapOptions& options)
      : Base(options.smr), ds_(make_ds(this->smr_, options)) {}

  bool insert_with(void* h, K key, V value) override {
    return ds_->insert(handle(h), key, value);
  }
  bool erase_with(void* h, K key) override {
    return ds_->erase(handle(h), key);
  }
  bool contains_with(void* h, K key) override {
    return ds_->contains(handle(h), key);
  }
  std::optional<V> get_with(void* h, K key) override {
    return ds_->get(handle(h), key);
  }
  std::size_t size_unsafe() const override { return ds_->size_unsafe(); }

 private:
  static std::unique_ptr<DS> make_ds(Smr& smr, const AnyMapOptions& options) {
    if constexpr (requires { DS(smr, std::size_t{1}); }) {
      return std::make_unique<DS>(
          smr, options.hash_buckets != 0 ? options.hash_buckets : 64);
    } else {
      return std::make_unique<DS>(smr);
    }
  }

  std::unique_ptr<DS> ds_;
};

template <class Smr, class DS>
std::unique_ptr<detail::AnyMapImpl> cell(const AnyMapOptions& options) {
  return std::make_unique<TypedAnyMap<Smr, DS>>(options);
}

template <class Smr>
std::unique_ptr<detail::AnyMapImpl> make_cell(StructureId structure,
                                              const AnyMapOptions& options) {
  switch (structure) {
    case StructureId::kHMList:
      return cell<Smr, HarrisMichaelList<K, V, Smr>>(options);
    case StructureId::kHList:
      return cell<Smr, HarrisList<K, V, Smr>>(options);
    case StructureId::kHListWF:
      return cell<Smr, HarrisList<K, V, Smr, HarrisListWaitFreeTraits>>(
          options);
    case StructureId::kNMTree:
      return cell<Smr, NatarajanMittalTree<K, V, Smr>>(options);
    case StructureId::kHashMap:
      return cell<Smr, HashMap<K, V, Smr>>(options);
    case StructureId::kSkipList:
      return cell<Smr, SkipList<K, V, Smr>>(options);
    case StructureId::kSkipListEager:
      return cell<Smr, SkipList<K, V, Smr, SkipListEagerTraits>>(options);
    // Trait-ablation variants (bench_ablation_recovery /
    // bench_ablation_unroll): cells like any other, so the ablation binaries
    // route through run_case().
    case StructureId::kHListNoRecovery:
      return cell<Smr, HarrisList<K, V, Smr, HarrisListNoRecoveryTraits>>(
          options);
    case StructureId::kHListSimple:
      return cell<Smr, HarrisList<K, V, Smr, HarrisListSimpleTraits>>(
          options);
    default:
      return nullptr;  // a structure of another concept
  }
}

}  // namespace

std::optional<AnyMap> AnyMap::make(SchemeId scheme, StructureId structure,
                                   const AnyMapOptions& options) {
  auto impl = with_domain(scheme, [&]<class Smr>(std::type_identity<Smr>) {
    return make_cell<Smr>(structure, options);
  });
  if (!impl) return std::nullopt;
  return AnyMap(scheme, structure, options.smr.max_threads, std::move(impl));
}

}  // namespace scot
