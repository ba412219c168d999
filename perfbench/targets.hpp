// The library surfaces the benchmark drives, behind one small shape so a
// single closed-loop driver runs each of them:
//
//   Session open()                          join the domain (one per worker)
//   static void prepare(const Op&, Ctx&)    driver work before the call
//                                           (key formatting, value encoding)
//   static bool apply(Session&, const Op&, Ctx&)   the measured library call
//   static bool present(Session&, key, Ctx&)       membership probe (verify)
//   Counters counters()                     public observers, for deltas
//   std::int64_t pending()                  retired-but-unfreed nodes (only
//                                           the surfaces a window measures)
//
// Integer-keyed maps run through the typed structure or AnyMap::Session;
// string-keyed runs through the typed KvHashMap, AnyKv::Session or
// KvStore::Session.  Only public scot.hpp calls are made.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "scot.hpp"
#include "support.hpp"

namespace perfbench {

inline constexpr unsigned kWorkers = 3;
inline constexpr std::size_t kMaxValueLen = 128;

enum OpKind : std::uint8_t { kRead, kInsert, kErase };

struct Op {
  std::uint64_t key;
  OpKind kind;
};

// Per-worker scratch and outcome tallies.  `tally[k]` is this worker's net
// count of successful inserts minus successful erases of key k.
struct Ctx {
  unsigned worker = 0;
  std::size_t value_len = 0;
  bool must_hit = false;  // every read must find its key (loaded kv store)
  std::int32_t* tally = nullptr;
  std::uint64_t bad = 0;  // reads that missed or decoded to another key
  std::uint64_t stamp = 0;
  char key[kKeyLen] = {};
  char value[kMaxValueLen] = {};
  std::string out;

  void record(const Op& op, bool ok) {
    if (!ok) return;
    if (op.kind == kInsert) ++tally[op.key];
    if (op.kind == kErase) --tally[op.key];
  }
  std::string_view key_view() const { return {key, kKeyLen}; }
  std::string_view value_view() const { return {value, value_len}; }
};

// The paper's calibration, as the bench harness sets it for 3 threads.
inline scot::SmrConfig paper_config() {
  scot::SmrConfig cfg;
  cfg.max_threads = kWorkers;
  cfg.scan_threshold = 128;
  cfg.era_freq = 12 * kWorkers;
  cfg.batch_capacity = 128;
  cfg.track_stats = true;  // pending_nodes() and stats() are measured
  cfg.asymmetric_fences = true;
  cfg.background_reclaim = false;
  return cfg;
}

struct Counters {
  scot::obs::StatsSnapshot stats;
  std::uint64_t restarts = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t bucket_count = 0;
  std::uint64_t migrated_buckets = 0;
  double heap_bytes = 0;  // allocator bytes in use when read
};

template <class Smr>
std::uint64_t sum_restarts(const Smr& smr) {
  std::uint64_t n = 0;
  for (const auto* r = smr.registry().head(); r != nullptr;
       r = r->next_record())
    n += r->handle.ds_restarts;
  return n;
}

template <class Smr>
std::uint64_t sum_recoveries(const Smr& smr) {
  std::uint64_t n = 0;
  for (const auto* r = smr.registry().head(); r != nullptr;
       r = r->next_record())
    n += r->handle.ds_recoveries;
  return n;
}

// --- integer-keyed maps ------------------------------------------------------

struct MapOps {
  static void prepare(const Op&, Ctx&) {}
};

class AnyMapTarget : public MapOps {
 public:
  using Session = scot::AnyMap::Session;
  static constexpr const char* kName = "AnyMap::Session";

  AnyMapTarget(scot::SchemeId scheme, scot::StructureId structure)
      : map_(make(scheme, structure)) {}

  Session open() { return map_.session(); }
  static bool apply(Session& s, const Op& op, Ctx&) {
    switch (op.kind) {
      case kRead: return s.contains(op.key);
      case kInsert: return s.insert(op.key, op.key);
      default: return s.erase(op.key);
    }
  }
  static bool present(Session& s, std::uint64_t key, Ctx&) {
    return s.contains(key);
  }
  std::int64_t pending() const { return map_.pending_nodes(); }
  Counters counters() const {
    return {map_.stats(), map_.restarts(), map_.recoveries(), 0, 0};
  }

 private:
  static scot::AnyMap make(scot::SchemeId scheme,
                           scot::StructureId structure) {
    auto m = scot::AnyMap::make(scheme, structure, {paper_config(), 0});
    if (!m) throw std::runtime_error("unregistered AnyMap cell");
    return std::move(*m);
  }
  scot::AnyMap map_;
};

template <class Smr, class DS>
class TypedMapTarget : public MapOps {
 public:
  struct Session {
    scot::ScopedHandle<Smr> h;  // joined handle; leaves on destruction
    DS* ds;
  };

  TypedMapTarget(scot::SchemeId, scot::StructureId)
      : smr_(paper_config()), ds_(smr_) {}

  Session open() { return {scot::scoped_handle(smr_), &ds_}; }
  static bool apply(Session& s, const Op& op, Ctx&) {
    switch (op.kind) {
      case kRead: return s.ds->contains(*s.h, op.key);
      case kInsert: return s.ds->insert(*s.h, op.key, op.key);
      default: return s.ds->erase(*s.h, op.key);
    }
  }
  static bool present(Session& s, std::uint64_t key, Ctx&) {
    return s.ds->contains(*s.h, key);
  }
  Counters counters() const {
    return {smr_.stats(), sum_restarts(smr_), sum_recoveries(smr_), 0, 0};
  }
  Smr& domain() { return smr_; }

 private:
  // Declaration order: the structure tears down through the domain.
  Smr smr_;
  DS ds_;
};

// --- string-keyed kv ---------------------------------------------------------

struct KvOps {
  static void prepare(const Op& op, Ctx& c) {
    format_key(c.key, op.key);
    if (op.kind == kInsert)
      encode_value(c.value, c.value_len, op.key,
                   (std::uint64_t{c.worker} << 48) | ++c.stamp);
  }
  // Reads check the value they return: it must name the key asked for.
  static bool checked_get(auto& s, std::uint64_t key, Ctx& c) {
    const bool hit = s.get(c.key_view(), &c.out);
    if (hit ? !decode_value(c.out, c.value_len, key) : c.must_hit) ++c.bad;
    return hit;
  }
  static bool apply(auto& s, const Op& op, Ctx& c) {
    switch (op.kind) {
      case kRead: return checked_get(s, op.key, c);
      case kInsert: return s.put(c.key_view(), c.value_view());
      default: return s.erase(c.key_view());
    }
  }
  static bool present(auto& s, std::uint64_t key, Ctx& c) {
    format_key(c.key, key);
    return checked_get(s, key, c);
  }
};

struct KvShape {
  unsigned shards = 1;
  std::size_t initial_buckets = 16;  // per shard
};

// Start every shard one doubling below its loaded size, as bench_kv does, so
// each load crosses exactly one incremental resize.
inline KvShape kv_shape(std::uint64_t live_keys, unsigned shards) {
  KvShape s;
  s.shards = shards;
  const std::uint64_t per_shard = std::max<std::uint64_t>(1, live_keys / shards);
  while (s.initial_buckets < per_shard / 8) s.initial_buckets *= 2;
  return s;
}

class KvStoreTarget : public KvOps {
 public:
  using Session = scot::KvStore::Session;
  static constexpr const char* kName = "KvStore::Session";

  KvStoreTarget(scot::SchemeId scheme, KvShape shape)
      : store_(make(scheme, shape)) {}

  Session open() { return store_.session(); }
  scot::AnyKv& shard(unsigned i) { return store_.shard(i); }
  std::int64_t pending() const { return store_.pending_nodes(); }
  Counters counters() const {
    return {store_.stats(), store_.restarts(), store_.recoveries(),
            store_.bucket_count(), store_.migrated_buckets()};
  }

 private:
  static scot::KvStore make(scot::SchemeId scheme, KvShape shape) {
    scot::KvStoreOptions o;
    o.smr = paper_config();
    o.shards = shape.shards;
    o.initial_buckets_per_shard = shape.initial_buckets;
    auto s = scot::KvStore::make(scheme, scot::StructureId::kKvHash, o);
    if (!s) throw std::runtime_error("unregistered KvStore cell");
    return std::move(*s);
  }
  scot::KvStore store_;
};

// One shard of a KvStore, driven through its own AnyKv::Session: the same
// structure as the store, minus the store's routing.
class AnyKvTarget : public KvOps {
 public:
  using Session = scot::AnyKv::Session;
  static constexpr const char* kName = "AnyKv::Session";

  explicit AnyKvTarget(scot::AnyKv& kv) : kv_(kv) {}

  Session open() { return kv_.session(); }

 private:
  scot::AnyKv& kv_;
};

// Typed KvHashMap behind the same string-keyed shape.
template <class Smr>
class TypedKvTarget : public KvOps {
  using Map = scot::KvHashMap<Smr>;

 public:

  struct Session {
    scot::ScopedHandle<Smr> h;
    Map* map;
    bool put(std::string_view k, std::string_view v) {
      const scot::KvPut r = map->put(*h, k, v);
      if (r == scot::KvPut::kRejected) {
        // Benchmark keys and values are far below the pooled-cell ceiling.
        std::fprintf(stderr, "scot_perfbench: KvHashMap rejected a pair\n");
        std::abort();
      }
      return r == scot::KvPut::kInserted;
    }
    bool erase(std::string_view k) { return map->erase(*h, k); }
    bool get(std::string_view k, std::string* out) {
      return map->get(*h, k, out);
    }
  };

  TypedKvTarget(scot::SchemeId, KvShape shape)
      : smr_(paper_config()),
        map_(smr_, typename Map::Options{shape.initial_buckets,
                                         std::size_t{1} << 20, 4}) {}

  Session open() { return {scot::scoped_handle(smr_), &map_}; }
  Counters counters() const {
    return {smr_.stats(), sum_restarts(smr_), sum_recoveries(smr_),
            map_.bucket_count(), map_.migrated_buckets()};
  }
  Smr& domain() { return smr_; }

 private:
  Smr smr_;
  Map map_;
};

}  // namespace perfbench
