// scot::KvStore — the serving-layer facade: N independent AnyKv shards,
// each a (scheme × structure) cell with its own SMR domain, its
// own NodePool, and its own split-ordered list and bucket directory
// (DESIGN.md §10).
//
// Routing.  Keys hash once (kv_hash); the TOP 16 bits pick the shard and
// the LOW bits pick the bucket inside the shard, so shard choice and
// bucket choice never correlate even for adversarial key sets.  Shards are
// fully independent: there is no cross-shard synchronisation on any
// operation path, and growing one shard's directory never touches another.
//
// SmrConfig inheritance.  KvStoreOptions.smr is handed verbatim to every
// shard's domain, so one knob configures the whole store: with
// background_reclaim on, each shard runs its own reclaimer thread (scan
// cost amortizes per shard); batch_capacity and scan_threshold apply
// per shard likewise.
//
// Threading.  Mirrors AnyMap/AnyKv: each worker opens store.session(),
// which joins *every* shard's handle registry once (N cheap lock-free
// joins), then routes each operation to the owning shard's session with
// zero further membership work.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "kv/any_kv.hpp"
#include "kv/kv_hash_map.hpp"  // kv_hash
#include "obs/stats.hpp"
#include "smr/smr_config.hpp"

namespace scot {

struct KvStoreOptions {
  SmrConfig smr;  // inherited verbatim by every shard's domain
  unsigned shards = 8;
  std::size_t initial_buckets_per_shard = 16;
  std::size_t max_buckets_per_shard = std::size_t{1} << 20;
  unsigned max_load_factor = 4;
};

class KvStore {
 public:
  // The router picks a shard from the top 16 bits of the key hash, so no
  // shard past this many could ever be addressed.
  static constexpr unsigned kMaxShards = 1u << 16;

  // Builds `shards` cells of (scheme, structure).  Returns nullopt for a
  // structure of another concept and for more than kMaxShards shards.
  // Defined in src/kv/any_kv.cpp next to AnyKv::make().
  static std::optional<KvStore> make(SchemeId scheme, StructureId structure,
                                     const KvStoreOptions& options = {});

  KvStore(KvStore&&) = default;
  KvStore& operator=(KvStore&&) = default;

  class Session {
   public:
    Session() = default;
    Session(Session&&) = default;
    Session& operator=(Session&&) = default;

    bool put(std::string_view key, std::string_view value) {
      return shard(kv_hash(key)).put(key, value);
    }
    bool erase(std::string_view key) {
      return shard(kv_hash(key)).erase(key);
    }
    bool contains(std::string_view key) {
      return shard(kv_hash(key)).contains(key);
    }
    bool get(std::string_view key, std::string* out) {
      return shard(kv_hash(key)).get(key, out);
    }
    std::optional<std::string> get(std::string_view key) {
      std::string out;
      if (!get(key, &out)) return std::nullopt;
      return out;
    }

    explicit operator bool() const noexcept { return !sessions_.empty(); }
    void reset() noexcept { sessions_.clear(); }

   private:
    friend class KvStore;
    explicit Session(std::vector<AnyKv>& shards) {
      sessions_.reserve(shards.size());
      for (AnyKv& s : shards) sessions_.push_back(s.session());
    }
    AnyKv::Session& shard(std::uint64_t hash) {
      return sessions_[static_cast<std::size_t>(hash >> 48) %
                       sessions_.size()];
    }

    std::vector<AnyKv::Session> sessions_;
  };

  // Opens one session per shard for the calling thread.  The store must
  // outlive it.
  Session session() { return Session(shards_); }

  bool put_ok(std::string_view key, std::string_view value) const {
    return shards_.front().put_ok(key, value);
  }

  // --- observers (aggregated over shards) ---------------------------------
  std::size_t size_unsafe() {
    std::size_t n = 0;
    for (AnyKv& s : shards_) n += s.size_unsafe();
    return n;
  }
  std::int64_t pending_nodes() const {
    std::int64_t n = 0;
    for (const AnyKv& s : shards_) n += s.pending_nodes();
    return n;
  }
  std::uint64_t restarts() const {
    std::uint64_t n = 0;
    for (const AnyKv& s : shards_) n += s.restarts();
    return n;
  }
  std::uint64_t recoveries() const {
    std::uint64_t n = 0;
    for (const AnyKv& s : shards_) n += s.recoveries();
    return n;
  }
  std::size_t bucket_count() const {
    std::size_t n = 0;
    for (const AnyKv& s : shards_) n += s.bucket_count();
    return n;
  }
  std::uint64_t migrated_buckets() const {
    std::uint64_t n = 0;
    for (const AnyKv& s : shards_) n += s.migrated_buckets();
    return n;
  }
  // One snapshot folded over every shard domain (StatsSnapshot::merge_from:
  // counters sum, peaks/percentiles max).
  obs::StatsSnapshot stats() const {
    obs::StatsSnapshot agg;
    for (const AnyKv& s : shards_) agg.merge_from(s.stats());
    return agg;
  }

  unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }
  AnyKv& shard(unsigned i) { return shards_[i]; }
  SchemeId scheme() const { return shards_.front().scheme(); }
  StructureId structure() const { return shards_.front().structure(); }
  const char* scheme_name() const { return shards_.front().scheme_name(); }
  const char* structure_name() const {
    return shards_.front().structure_name();
  }

 private:
  explicit KvStore(std::vector<AnyKv> shards) : shards_(std::move(shards)) {}

  std::vector<AnyKv> shards_;
};

}  // namespace scot
