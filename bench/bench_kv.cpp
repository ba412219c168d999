// bench_kv: YCSB-shaped serving workloads over the scot::KvStore subsystem
// (src/kv/, DESIGN.md §10) — string keys, inline value blobs, sharded
// resizable hash maps, every SMR scheme.
//
// Grid: workload preset (YCSB A/B/C; --preset narrows to one) × shard
// count ({1, 8}; --shards narrows to one) × scheme, rows = thread counts.
// Unlike the figure binaries this one does not go through run_case(): the
// measured loop speaks the string-keyed KvStore session surface directly,
// but reuses the harness calibration (detail::smr_config_for), the zipfian
// generator, the latency histograms, and median_of_runs.
//
// Serving shape defaults: zipfian key choice (YCSB's default; --dist
// uniform overrides), 16-byte keys ("user" + zero-padded id; --key-len),
// 128-byte values (--value-size).  Prefill covers the FULL key range —
// YCSB runs against a loaded store, and a 50% prefill would turn half of
// ycsb-a's updates into inserts and resize the shards mid-measurement.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/runner_impl.hpp"
#include "fig_common.hpp"
#include "kv/kv_store.hpp"

namespace scot::bench {
namespace {

struct KvPreset {
  const char* name;
  WorkloadMix mix;
};

constexpr KvPreset kKvPresets[] = {
    {"ycsb-a", {50, 50, 0}},
    {"ycsb-b", {95, 5, 0}},
    {"ycsb-c", {100, 0, 0}},
};

// Fixed-width key: "user" + zero-padded decimal id, `len` bytes total.
// Width is what makes --key-len a real knob: every key compare walks the
// shared prefix before the digits diverge.
void make_key(std::string& out, std::uint64_t id, std::size_t len) {
  char digits[24];
  const int n = std::snprintf(digits, sizeof(digits), "%llu",
                              static_cast<unsigned long long>(id));
  out.assign("user");
  const std::size_t body = len > 4 ? len - 4 : 1;
  if (static_cast<std::size_t>(n) < body)
    out.append(body - static_cast<std::size_t>(n), '0');
  out.append(digits, static_cast<std::size_t>(n));
}

// One measured run over a fresh KvStore: the string-keyed sibling of
// detail::run_one_map, same phases (prefill → timed mix → telemetry fold).
CaseResult run_one_kv(const CaseConfig& cfg, std::uint64_t run_seed) {
  KvStoreOptions options;
  options.smr = detail::smr_config_for(cfg);
  options.shards = cfg.kv_shards == 0 ? 1 : cfg.kv_shards;
  // Start shards one doubling below their loaded size so every run
  // crosses at least one doubling (and links the new buckets' sentinels).
  const std::uint64_t per_shard =
      std::max<std::uint64_t>(1, cfg.key_range / options.shards);
  std::size_t buckets = 16;
  while (buckets < per_shard / 8) buckets *= 2;
  options.initial_buckets_per_shard = buckets;
  auto store = KvStore::make(cfg.scheme, StructureId::kKvHash, options);
  if (!store) {
    std::fprintf(stderr, "bench_kv: KvStore::make has no cell for %s/KvHash\n",
                 scheme_name(cfg.scheme));
    std::exit(2);
  }

  const std::string value(cfg.value_size == 0 ? 128 : cfg.value_size, 'v');
  const std::size_t key_len = cfg.key_len == 0 ? 16 : cfg.key_len;

  // --- prefill: the full key range, split across the workers ---
  {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < cfg.threads; ++t) {
      ts.emplace_back([&, t] {
        if (cfg.pin_threads) pin_this_thread(t);
        auto session = store->session();
        std::string key;
        for (std::uint64_t k = t; k < cfg.key_range; k += cfg.threads) {
          make_key(key, k, key_len);
          session.put(key, value);
        }
      });
    }
    for (auto& th : ts) th.join();
  }

  std::optional<Zipf> zipf;
  if (cfg.key_dist == KeyDist::kZipfian)
    zipf.emplace(cfg.key_range, cfg.zipf_theta);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(cfg.threads, 0);
  std::vector<std::uint64_t> reads(cfg.threads, 0);
  std::vector<std::uint64_t> writes(cfg.threads, 0);
  std::vector<std::uint64_t> removes(cfg.threads, 0);
  std::vector<obs::LatencyHistogram> latency(cfg.threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      if (cfg.pin_threads) pin_this_thread(t);
      auto session = store->session();
      Xoshiro256 rng(run_seed * 0x9e3779b9 + 1000003ULL * t);
      obs::LatencyHistogram& hist = latency[t];
      const unsigned lat_every = cfg.latency_sample_every;
      std::string key, out;
      while (!go.load(std::memory_order_acquire)) cpu_relax();
      std::uint64_t local = 0, nread = 0, nwrite = 0, ndel = 0;
      const std::uint64_t budget = cfg.op_budget;
      for (;;) {
        if (budget != 0) {
          if (local >= budget) break;
        } else if (stop.load(std::memory_order_relaxed)) {
          break;
        }
        const std::uint64_t k =
            zipf ? detail::scramble(zipf->next(rng) + 1) % cfg.key_range
                 : rng.next_in(cfg.key_range);
        make_key(key, k, key_len);
        const auto roll = static_cast<int>(rng.next_in(100));
        const bool timed_op = lat_every != 0 && local % lat_every == 0;
        const std::uint64_t op_t0 = timed_op ? now_ns() : 0;
        if (roll < cfg.read_pct) {
          session.get(key, &out);
          ++nread;
        } else if (roll < cfg.read_pct + cfg.insert_pct) {
          session.put(key, value);  // YCSB write: update-or-insert
          ++nwrite;
        } else {
          session.erase(key);
          ++ndel;
        }
        if (timed_op) hist.record(now_ns() - op_t0);
        ++local;
      }
      ops[t] = local;
      reads[t] = nread;
      writes[t] = nwrite;
      removes[t] = ndel;
    });
  }

  std::atomic<bool> sampler_stop{false};
  double pending_sum = 0;
  std::uint64_t pending_samples = 0;
  std::int64_t pending_peak = 0;
  std::thread sampler;
  if (cfg.sample_memory) {
    sampler = std::thread([&] {
      while (!sampler_stop.load(std::memory_order_relaxed)) {
        const std::int64_t p = store->pending_nodes();
        pending_sum += static_cast<double>(p);
        ++pending_samples;
        pending_peak = std::max(pending_peak, p);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  if (cfg.op_budget == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.millis));
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& w : workers) w.join();
  const std::uint64_t t1 = now_ns();
  if (cfg.sample_memory) {
    sampler_stop.store(true, std::memory_order_relaxed);
    sampler.join();
  }

  CaseResult r;
  r.seconds = ns_to_sec(t1 - t0);
  for (const auto o : ops) r.total_ops += o;
  for (const auto o : reads) r.reads += o;
  for (const auto o : writes) r.inserts += o;
  for (const auto o : removes) r.removes += o;
  r.mops = static_cast<double>(r.total_ops) / r.seconds / 1e6;
  if (r.total_ops > 0)
    r.ns_per_op = r.seconds * 1e9 / static_cast<double>(r.total_ops);
  if (pending_samples > 0)
    r.avg_pending = pending_sum / static_cast<double>(pending_samples);
  r.peak_pending = pending_peak;
  r.restarts = store->restarts();
  r.recoveries = store->recoveries();
  obs::LatencyHistogram merged;
  for (const auto& h : latency) merged.merge(h);
  if (merged.count() > 0) {
    r.p50_ns = static_cast<double>(merged.percentile(50.0));
    r.p99_ns = static_cast<double>(merged.percentile(99.0));
    r.p999_ns = static_cast<double>(merged.percentile(99.9));
  }
  return r;
}

void run_kv_grid(const KvPreset& preset, unsigned shards, int def_ms) {
  const auto threads = env_threads();
  const int ms = env_ms(def_ms);
  const unsigned runs = env_runs();

  CaseConfig proto;
  proto.structure = StructureId::kKvHash;
  proto.key_range = 4096;
  proto.millis = ms;
  proto.runs = runs;
  proto.read_pct = preset.mix.read_pct;
  proto.insert_pct = preset.mix.insert_pct;
  proto.delete_pct = preset.mix.delete_pct;
  proto.key_dist = KeyDist::kZipfian;  // YCSB default; --dist overrides
  apply_session_flags(proto);
  // apply_session_flags honours --preset, but the preset already chose
  // this grid — restore the grid's own mix so labels and cells agree.
  proto.read_pct = preset.mix.read_pct;
  proto.insert_pct = preset.mix.insert_pct;
  proto.delete_pct = preset.mix.delete_pct;
  proto.kv_shards = shards;
  if (proto.value_size == 0) proto.value_size = 128;
  if (proto.key_len == 0) proto.key_len = 16;

  const std::string title = std::string("kv: ") + preset.name + ", " +
                            std::to_string(shards) +
                            (shards == 1 ? " shard" : " shards");
  std::printf("== %s ==\n", title.c_str());
  std::printf("   mix=%d/%d/%d range=%llu key=%zuB value=%zuB ms=%d runs=%u",
              proto.read_pct, proto.insert_pct, proto.delete_pct,
              static_cast<unsigned long long>(proto.key_range),
              proto.key_len, proto.value_size, ms, runs);
  if (proto.key_dist == KeyDist::kZipfian)
    std::printf(" dist=zipfian(%.2f)", proto.zipf_theta);
  if (proto.background_reclaim) std::printf(" bg-reclaim");
  std::printf("\n");

  std::vector<std::string> header{"threads"};
  for (SchemeId s : kAllSchemes) header.push_back(scheme_name(s));
  Table t(std::move(header));
  for (unsigned th : threads) {
    std::vector<std::string> row{std::to_string(th)};
    for (SchemeId s : kAllSchemes) {
      CaseConfig cfg = proto;
      cfg.scheme = s;
      cfg.threads = th;
      const CaseResult r = detail::median_of_runs(
          cfg, [&](std::uint64_t seed) { return run_one_kv(cfg, seed); });
      row.push_back(format_double(r.mops, 2));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("   (Mops/s; higher is better)\n\n");
}

}  // namespace
}  // namespace scot::bench

int main(int argc, char** argv) {
  using namespace scot::bench;
  // --dist is a YCSB-default override here, so remember whether the user
  // spelled it before fig_init consumes the flag vector.
  bool dist_given = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--dist") == 0) dist_given = true;
  fig_init(argc, argv);
  if (!dist_given) session_flags().dist = KeyDist::kZipfian;

  const BenchFlags& flags = session_flags();
  std::vector<KvPreset> presets;
  for (const KvPreset& p : kKvPresets) {
    if (flags.preset && (flags.preset->read_pct != p.mix.read_pct ||
                         flags.preset->insert_pct != p.mix.insert_pct ||
                         flags.preset->delete_pct != p.mix.delete_pct))
      continue;
    presets.push_back(p);
  }
  if (presets.empty()) {
    // --preset named a non-YCSB mix (e.g. "mixed"): run it as a custom
    // serving grid rather than rejecting a documented flag.
    presets.push_back(KvPreset{"custom", *flags.preset});
  }
  const std::vector<unsigned> shard_counts =
      flags.kv_shards != 0 ? std::vector<unsigned>{flags.kv_shards}
                           : std::vector<unsigned>{1, 8};

  for (const KvPreset& p : presets)
    for (unsigned shards : shard_counts) run_kv_grid(p, shards, 200);
  return 0;
}
