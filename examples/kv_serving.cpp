// kv_serving: the serving layer in one page — a sharded, resizable,
// string-keyed scot::KvStore (src/kv/, DESIGN.md §10) serving a small
// read-mostly workload from a few threads while the shards grow
// underneath it.
//
//   ./examples/kv_serving            # defaults: IBR, 4 shards
//   ./examples/kv_serving HP 8       # shards: 1..64
//
// Each worker opens one store.session() (joining every shard's SMR domain
// once) and then routes by key hash: top 16 bits pick the shard, the rest
// pick the bucket.  The stores start deliberately tiny so the run crosses
// several doublings: each shard is one split-ordered list, so growing moves
// no entry, and each new bucket's sentinel is linked into the list the
// first time a key hashes to it (migrated_buckets counts those links).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "scot.hpp"

int main(int argc, char** argv) {
  using namespace scot;

  SchemeId scheme = SchemeId::kIBR;
  unsigned shards = 4;
  if (argc > 1) {
    const auto s = scheme_from_name(argv[1]);
    if (!s) {
      std::fprintf(stderr, "unknown scheme '%s' (try NR EBR HP HPopt HE IBR "
                   "HLN)\n", argv[1]);
      return 2;
    }
    scheme = *s;
  }
  if (argc > 2) {
    // A whole decimal in [1, 64]: every shard is a domain (and, under
    // SCOT_BG=1, a reclaimer thread), so a typo must not become billions.
    const char* arg = argv[2];
    char* end = nullptr;
    long n = 0;  // strtol alone would skip spaces and take a sign
    if (arg[0] >= '0' && arg[0] <= '9') n = std::strtol(arg, &end, 10);
    if (n < 1 || n > 64 || *end != '\0') {
      std::fprintf(stderr, "shards must be a whole number in [1, 64], got "
                   "'%s'\n", argv[2]);
      return 2;
    }
    shards = static_cast<unsigned>(n);
  }

  KvStoreOptions options;
  options.smr.max_threads = 8;
  options.shards = shards;
  options.initial_buckets_per_shard = 4;  // tiny on purpose: force resizes
  auto store = KvStore::make(scheme, StructureId::kKvHash, options);
  if (!store) {
    std::fprintf(stderr, "KvStore::make has no cell for %s\n",
                 scheme_name(scheme));
    return 2;
  }

  constexpr unsigned kThreads = 4;
  constexpr int kUsers = 4000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto session = store->session();
      std::string value;
      for (int i = static_cast<int>(t); i < kUsers; i += kThreads) {
        const std::string key = "user" + std::to_string(i);
        session.put(key, "profile:" + std::to_string(i));    // load
        session.get(key, &value);                            // read back
        if (i % 10 == 0) session.put(key, value + "!");      // update
        if (i % 7 == 0) session.erase(key);                  // churn
      }
    });
  }
  for (auto& w : workers) w.join();

  std::printf("scheme=%s shards=%u\n", scheme_name(scheme),
              store->shard_count());
  std::printf("entries=%zu buckets=%zu (started at %u x %zu)\n",
              store->size_unsafe(), store->bucket_count(), shards,
              options.initial_buckets_per_shard);
  std::printf("migrated_buckets=%llu pending_nodes=%lld\n",
              static_cast<unsigned long long>(store->migrated_buckets()),
              static_cast<long long>(store->pending_nodes()));
  // SCOT traversal telemetry (paper Table 2): full restarts and §3.2.1
  // recoveries of the shards' list searches.
  std::printf("restarts=%llu recoveries=%llu\n",
              static_cast<unsigned long long>(store->restarts()),
              static_cast<unsigned long long>(store->recoveries()));

  auto session = store->session();
  const auto hit = session.get("user1");  // 1 % 7 != 0, still present
  std::printf("get(\"user1\") -> %s\n",
              hit ? hit->c_str() : "(absent)");
  session.reset();
  // The shards' SMR telemetry, merged: retires, scans, pending nodes and
  // pool_bytes (the node pool's mapped chunks).
  std::printf("%s", store->stats().to_string().c_str());
  return 0;
}
