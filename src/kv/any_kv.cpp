// The one translation unit that instantiates the scheme × kv-structure
// cross product — the string-keyed sibling of src/core/any_map.cpp.
// KvStore::make() also lives here: a store is just N cells built from one
// inherited SmrConfig.
#include "kv/any_kv.hpp"

#include <type_traits>
#include <utility>
#include <vector>

#include "kv/kv_hash_map.hpp"
#include "kv/kv_store.hpp"
#include "smr/smr.hpp"

namespace scot {
namespace {

template <class Smr>
class TypedAnyKv final : public detail::TypedCell<detail::AnyKvImpl, Smr> {
  using Base = detail::TypedCell<detail::AnyKvImpl, Smr>;
  using Base::handle;
  using Map = KvHashMap<Smr>;

 public:
  explicit TypedAnyKv(const AnyKvOptions& options)
      : Base(options.smr),
        map_(this->smr_, typename Map::Options{options.initial_buckets,
                                               options.max_buckets,
                                               options.max_load_factor}) {}

  bool put_with(void* h, std::string_view key,
                std::string_view value) override {
    return map_.put(handle(h), key, value) == KvPut::kInserted;
  }
  bool erase_with(void* h, std::string_view key) override {
    return map_.erase(handle(h), key);
  }
  bool contains_with(void* h, std::string_view key) override {
    return map_.contains(handle(h), key);
  }
  bool get_with(void* h, std::string_view key, std::string* out) override {
    return map_.get(handle(h), key, out);
  }
  bool put_ok(std::string_view key, std::string_view value) const override {
    return key.size() <= Map::max_key_bytes() &&
           value.size() <= Map::max_value_bytes();
  }

  std::size_t size_unsafe() override { return map_.size_unsafe(); }
  std::size_t bucket_count() const override { return map_.bucket_count(); }
  std::uint64_t migrated_buckets() const override {
    return map_.migrated_buckets();
  }

 private:
  Map map_;
};

}  // namespace

std::optional<AnyKv> AnyKv::make(SchemeId scheme, StructureId structure,
                                 const AnyKvOptions& options) {
  if (structure != StructureId::kKvHash) return std::nullopt;
  auto impl = with_domain(
      scheme, [&]<class Smr>(std::type_identity<Smr>)
                  -> std::unique_ptr<detail::AnyKvImpl> {
        return std::make_unique<TypedAnyKv<Smr>>(options);
      });
  if (!impl) return std::nullopt;
  return AnyKv(scheme, structure, options.smr.max_threads, std::move(impl));
}

std::optional<KvStore> KvStore::make(SchemeId scheme, StructureId structure,
                                     const KvStoreOptions& options) {
  const unsigned n = options.shards == 0 ? 1 : options.shards;
  if (n > kMaxShards) return std::nullopt;
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
