// The one translation unit that instantiates the scheme × kv-structure
// cross product and registers it with AnyKvRegistry — the string-keyed
// sibling of src/core/any_map.cpp.  KvStore::make() also lives here: a
// store is just N registry cells built from one inherited SmrConfig.
#include "kv/any_kv.hpp"

#include <utility>
#include <vector>

#include "kv/kv_hash_map.hpp"
#include "kv/kv_store.hpp"
#include "smr/smr.hpp"

namespace scot {
namespace {

template <class Smr>
class TypedAnyKv final : public detail::AnyKvImpl {
  using Handle = typename Smr::Handle;
  using Map = KvHashMap<Smr>;

 public:
  explicit TypedAnyKv(const AnyKvOptions& options)
      : smr_(options.smr),
        map_(smr_, typename Map::Options{options.initial_buckets,
                                         options.max_buckets,
                                         options.max_load_factor}) {}

  void* join_handle() override { return &smr_.join(); }
  void leave_handle(void* h) override { smr_.leave(*static_cast<Handle*>(h)); }

  bool put_with(void* h, std::string_view key,
                std::string_view value) override {
    return map_.put(*static_cast<Handle*>(h), key, value) ==
           KvPut::kInserted;
  }
  bool erase_with(void* h, std::string_view key) override {
    return map_.erase(*static_cast<Handle*>(h), key);
  }
  bool contains_with(void* h, std::string_view key) override {
    return map_.contains(*static_cast<Handle*>(h), key);
  }
  bool get_with(void* h, std::string_view key, std::string* out) override {
    return map_.get(*static_cast<Handle*>(h), key, out);
  }
  bool put_ok(std::string_view key, std::string_view value) const override {
    return key.size() <= Map::max_key_bytes() &&
           value.size() <= Map::max_value_bytes();
  }

  std::size_t size_unsafe() override { return map_.size_unsafe(); }
  std::int64_t pending_nodes() const override { return smr_.pending_nodes(); }
  std::uint64_t restarts() const override { return smr_.restarts(); }
  std::uint64_t recoveries() const override { return smr_.recoveries(); }
  unsigned active_handles() const override { return smr_.active_handles(); }
  obs::StatsSnapshot stats() const override { return smr_.stats(); }
  std::size_t bucket_count() const override { return map_.bucket_count(); }
  std::uint64_t migrated_buckets() const override {
    return map_.migrated_buckets();
  }
  std::uint64_t pending_migration() const override {
    return map_.pending_migration();
  }

 private:
  // Declaration order is destruction order in reverse: the map's teardown
  // deallocates through the domain, so the domain must outlive it.
  mutable Smr smr_;
  Map map_;
};

template <class Smr>
std::unique_ptr<detail::AnyKvImpl> make_cell(const AnyKvOptions& options) {
  return std::make_unique<TypedAnyKv<Smr>>(options);
}

const bool kRegistered = [] {
  auto& reg = AnyKvRegistry::instance();
  reg.add(SchemeId::kNR, StructureId::kKvHash, &make_cell<NoReclaimDomain>);
  reg.add(SchemeId::kEBR, StructureId::kKvHash, &make_cell<EbrDomain>);
  reg.add(SchemeId::kHP, StructureId::kKvHash, &make_cell<HpDomain>);
  reg.add(SchemeId::kHPopt, StructureId::kKvHash, &make_cell<HpOptDomain>);
  reg.add(SchemeId::kHE, StructureId::kKvHash, &make_cell<HeDomain>);
  reg.add(SchemeId::kIBR, StructureId::kKvHash, &make_cell<IbrDomain>);
  reg.add(SchemeId::kHLN, StructureId::kKvHash, &make_cell<HyalineDomain>);
  return true;
}();

}  // namespace

std::optional<AnyKv> AnyKv::make(SchemeId scheme, StructureId structure,
                                 const AnyKvOptions& options) {
  // ODR-use the registrar so linking make() always pulls the registrations.
  (void)kRegistered;
  const AnyKvRegistry::Factory factory =
      AnyKvRegistry::instance().find(scheme, structure);
  if (factory == nullptr) return std::nullopt;
  return AnyKv(scheme, structure, factory(options));
}

std::optional<KvStore> KvStore::make(SchemeId scheme, StructureId structure,
                                     const KvStoreOptions& options) {
  const unsigned n = options.shards == 0 ? 1 : options.shards;
  AnyKvOptions shard_options;
  shard_options.smr = options.smr;  // per-shard SmrConfig inheritance
  shard_options.initial_buckets = options.initial_buckets_per_shard;
  shard_options.max_buckets = options.max_buckets_per_shard;
  shard_options.max_load_factor = options.max_load_factor;
  std::vector<AnyKv> shards;
  shards.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto shard = AnyKv::make(scheme, structure, shard_options);
    if (!shard) return std::nullopt;
    shards.push_back(std::move(*shard));
  }
  return KvStore(std::move(shards));
}

}  // namespace scot
