// Per-concept measured loops (one driver per ContainerKind).
//
// Protocol (paper §5): prefill the structure to 50% of the key range, then
// run `threads` workers for `millis` ms applying the workload mix; report
// throughput, and (optionally) sample the domain-wide count of
// retired-but-unreclaimed nodes every few milliseconds.
//
// Driver contract.  Each driver is written against the *session surface* of
// its concept's type-erased facade — per-thread sessions joining the
// domain's dynamic handle registry, plus the pending/restarts/recoveries
// telemetry — and nothing else, so any value with that surface benchmarks
// identically (typed instantiations in ablation tests use the same loops):
//   run_one_map        scot::AnyMap-shaped   read/insert/delete mix over a
//                                            key range (uniform or Zipfian)
//   run_one_container  scot::AnyContainer-   push/pop mix (<ins%>/<del%>;
//   (run_one_queue/    shaped                reads are meaningless) or, with
//    _stack/_deque)                          split_workload, even workers
//                                            push and odd workers pop; deque
//                                            ends are picked per-op by an
//                                            RNG bit
// All drivers share the harness machinery: go/stop barrier, per-worker RNG
// streams seeded from (run_seed, t), stride-sampled latency histograms, the
// 2 ms pending-nodes sampler, and median_of_runs.  Every binary reaches a
// driver through the registry-driven run_case() in bench/runner.cpp, which
// dispatches on container_kind(cfg.structure).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench/options.hpp"
#include "common/affinity.hpp"
#include "common/backoff.hpp"
#include "common/timing.hpp"
#include "common/xorshift.hpp"
#include "common/zipf.hpp"
#include "core/core.hpp"
#include "obs/histogram.hpp"

namespace scot::bench {

namespace detail {

// SplitMix64 finalizer, used to decorrelate Zipfian ranks from key order:
// without it the hot keys would cluster at the front of the ordered
// structures and shorten exactly the traversals the benchmark measures.
inline std::uint64_t scramble(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// The domain configuration every harness run uses (paper calibration).
inline SmrConfig smr_config_for(const CaseConfig& cfg) {
  SmrConfig scfg;
  scfg.max_threads = cfg.threads;
  scfg.scan_threshold = 128;        // paper calibration
  scfg.era_freq = 12 * cfg.threads; // paper calibration
  // Hyaline's reclaim cadence is the batch handoff, not a limbo scan; the
  // library's auto capacity (max_threads + 1, the paper's 1S minimum)
  // would hand off — and, under asymmetric fences, issue a heavy barrier —
  // every handful of retires, ~25x more often than the other schemes'
  // scan_threshold.  Align it with the same per-128-retires calibration
  // (never below the structural minimum the batch/slot accounting needs).
  scfg.batch_capacity = std::max(cfg.threads + 1u,
                                 static_cast<unsigned>(scfg.scan_threshold));
  scfg.track_stats = cfg.sample_memory;
  scfg.asymmetric_fences = cfg.asymmetric_fences;
  scfg.background_reclaim = cfg.background_reclaim;
  return scfg;
}

// Harness bucket heuristic for HashMap cells: one shared definition so the
// typed-ablation path and the registry path benchmark the same structure.
inline std::size_t bucket_count_for(const CaseConfig& cfg) {
  return cfg.hash_buckets != 0
             ? cfg.hash_buckets
             : std::max<std::size_t>(1, cfg.key_range / 8);
}

// One measured run over a map-like value (see the header comment).
template <class MapLike>
CaseResult run_one_map(MapLike& map, const CaseConfig& cfg,
                       std::uint64_t run_seed) {
  // --- parallel prefill: unique keys, 50% of the range ---
  // Prefill always draws uniformly: the key *distribution* shapes which
  // keys the measured phase touches, not what the structure contains.
  const std::uint64_t target = cfg.key_range / 2;
  {
    std::atomic<std::uint64_t> inserted{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < cfg.threads; ++t) {
      ts.emplace_back([&, t] {
        if (cfg.pin_threads) pin_this_thread(t);
        auto session = map.session();  // joins the domain for this worker
        Xoshiro256 rng(run_seed * 0x51ed2701 + t);
        while (inserted.load(std::memory_order_relaxed) < target) {
          const std::uint64_t k = rng.next_in(cfg.key_range);
          if (session.insert(k, k)) {
            inserted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }

  // --- measured phase ---
  // Zipfian state is shared read-only by the workers; each worker keeps its
  // own RNG, so one draw per op stays deterministic per (seed, thread).
  std::optional<Zipf> zipf;
  if (cfg.key_dist == KeyDist::kZipfian)
    zipf.emplace(cfg.key_range, cfg.zipf_theta);

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(cfg.threads, 0);
  std::vector<std::uint64_t> reads(cfg.threads, 0);
  std::vector<std::uint64_t> inserts(cfg.threads, 0);
  std::vector<std::uint64_t> removes(cfg.threads, 0);
  // One latency histogram per worker (single-writer during the run), merged
  // after join — no synchronisation on the measured path beyond two clock
  // reads per sampled op.
  std::vector<obs::LatencyHistogram> latency(cfg.threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      if (cfg.pin_threads) pin_this_thread(t);
      // Session per worker: the handle is resolved once at join, so the
      // measured loop pays no tid lookup at all (it used to pay a cached
      // pointer-table index per op).
      auto session = map.session();
      Xoshiro256 rng(run_seed * 0x9e3779b9 + 1000003ULL * t);
      obs::LatencyHistogram& hist = latency[t];
      const unsigned lat_every = cfg.latency_sample_every;
      while (!go.load(std::memory_order_acquire)) cpu_relax();
      std::uint64_t local = 0, nread = 0, nins = 0, ndel = 0;
      const std::uint64_t budget = cfg.op_budget;
      for (;;) {
        if (budget != 0) {
          if (local >= budget) break;
        } else if (stop.load(std::memory_order_relaxed)) {
          break;
        }
        // rank+1: the SplitMix64 finalizer has a fixed point at 0, which
        // would pin the hottest rank to key 0 at the head of the list.
        const std::uint64_t k =
            zipf ? scramble(zipf->next(rng) + 1) % cfg.key_range
                 : rng.next_in(cfg.key_range);
        const auto roll = static_cast<int>(rng.next_in(100));
        const bool timed_op = lat_every != 0 && local % lat_every == 0;
        const std::uint64_t op_t0 = timed_op ? now_ns() : 0;
        if (roll < cfg.read_pct) {
          session.contains(k);
          ++nread;
        } else if (roll < cfg.read_pct + cfg.insert_pct) {
          session.insert(k, k);
          ++nins;
        } else {
          session.erase(k);
          ++ndel;
        }
        if (timed_op) hist.record(now_ns() - op_t0);
        ++local;
      }
      ops[t] = local;
      reads[t] = nread;
      inserts[t] = nins;
      removes[t] = ndel;
    });
  }

  // Memory-overhead sampler (Figures 10-12): average/peak of the pending
  // gauge, sampled every 2 ms.
  std::atomic<bool> sampler_stop{false};
  double pending_sum = 0;
  std::uint64_t pending_samples = 0;
  std::int64_t pending_peak = 0;
  std::thread sampler;
  if (cfg.sample_memory) {
    sampler = std::thread([&] {
      while (!sampler_stop.load(std::memory_order_relaxed)) {
        const std::int64_t p = map.pending_nodes();
        pending_sum += static_cast<double>(p);
        ++pending_samples;
        pending_peak = std::max(pending_peak, p);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  if (cfg.op_budget == 0) {  // timed run; a budget run stops by itself
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
  for (const auto o : inserts) r.inserts += o;
  for (const auto o : removes) r.removes += o;
  r.mops = static_cast<double>(r.total_ops) / r.seconds / 1e6;
  if (r.total_ops > 0)
    r.ns_per_op = r.seconds * 1e9 / static_cast<double>(r.total_ops);
  if (pending_samples > 0)
    r.avg_pending = pending_sum / static_cast<double>(pending_samples);
  r.peak_pending = pending_peak;
  r.restarts = map.restarts();
  r.recoveries = map.recoveries();
  obs::LatencyHistogram merged;
  for (const auto& h : latency) merged.merge(h);
  if (merged.count() > 0) {
    r.p50_ns = static_cast<double>(merged.percentile(50.0));
    r.p99_ns = static_cast<double>(merged.percentile(99.0));
    r.p999_ns = static_cast<double>(merged.percentile(99.9));
  }
  return r;
}

// One measured run over a container-like value (scot::AnyContainer's
// session surface; see the header comment).  `kind` picks the ends: queues
// push at the back and pop at the front, stacks do both at the front,
// deques pick the end per op with an RNG bit.  cfg.insert_pct is the push
// share and cfg.delete_pct the pop share; with cfg.split_workload, even
// workers are pure producers and odd workers pure consumers (a lone worker
// falls back to the mixed roll so the case still terminates with ops > 0).
template <class ContainerLike>
CaseResult run_one_container(ContainerLike& c, ContainerKind kind,
                             const CaseConfig& cfg, std::uint64_t run_seed) {
  // --- parallel prefill: key_range/2 elements, like the maps ---
  const std::uint64_t target = cfg.key_range / 2;
  {
    std::atomic<std::uint64_t> pushed{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < cfg.threads; ++t) {
      ts.emplace_back([&, t] {
        if (cfg.pin_threads) pin_this_thread(t);
        auto session = c.session();
        Xoshiro256 rng(run_seed * 0x51ed2701 + t);
        while (pushed.fetch_add(1, std::memory_order_relaxed) < target) {
          const std::uint64_t v = rng.next();
          if (kind == ContainerKind::kStack) {
            session.push_front(v);
          } else {
            session.push_back(v);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(cfg.threads, 0);
  std::vector<std::uint64_t> pushes(cfg.threads, 0);
  std::vector<std::uint64_t> pops(cfg.threads, 0);
  std::vector<obs::LatencyHistogram> latency(cfg.threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      if (cfg.pin_threads) pin_this_thread(t);
      auto session = c.session();
      Xoshiro256 rng(run_seed * 0x9e3779b9 + 1000003ULL * t);
      obs::LatencyHistogram& hist = latency[t];
      const unsigned lat_every = cfg.latency_sample_every;
      const bool split = cfg.split_workload && cfg.threads > 1;
      const bool producer = t % 2 == 0;
      while (!go.load(std::memory_order_acquire)) cpu_relax();
      std::uint64_t local = 0, npush = 0, npop = 0;
      const std::uint64_t budget = cfg.op_budget;
      for (;;) {
        if (budget != 0) {
          if (local >= budget) break;
        } else if (stop.load(std::memory_order_relaxed)) {
          break;
        }
        const std::uint64_t draw = rng.next();
        const bool push =
            split ? producer
                  : static_cast<int>(draw % 100) < cfg.insert_pct;
        // For deques the low bit above decides the *mix*; use a different
        // bit for the end so the two choices stay uncorrelated.
        const bool back = (draw >> 32) & 1;
        const bool timed_op = lat_every != 0 && local % lat_every == 0;
        const std::uint64_t op_t0 = timed_op ? now_ns() : 0;
        if (push) {
          const std::uint64_t v = draw ^ (local << 1);
          switch (kind) {
            case ContainerKind::kQueue: session.push_back(v); break;
            case ContainerKind::kStack: session.push_front(v); break;
            default:
              if (back) {
                session.push_back(v);
              } else {
                session.push_front(v);
              }
              break;
          }
          ++npush;
        } else {
          if (kind == ContainerKind::kDeque && back) {
            session.pop_back();
          } else {
            session.pop_front();
          }
          ++npop;
        }
        if (timed_op) hist.record(now_ns() - op_t0);
        ++local;
      }
      ops[t] = local;
      pushes[t] = npush;
      pops[t] = npop;
    });
  }

  // Memory-overhead sampler, same cadence as the map driver.
  std::atomic<bool> sampler_stop{false};
  double pending_sum = 0;
  std::uint64_t pending_samples = 0;
  std::int64_t pending_peak = 0;
  std::thread sampler;
  if (cfg.sample_memory) {
    sampler = std::thread([&] {
      while (!sampler_stop.load(std::memory_order_relaxed)) {
        const std::int64_t p = c.pending_nodes();
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
  for (const auto o : pushes) r.inserts += o;  // pushes report as inserts
  for (const auto o : pops) r.removes += o;    // pops as removes; no reads
  r.mops = static_cast<double>(r.total_ops) / r.seconds / 1e6;
  if (r.total_ops > 0)
    r.ns_per_op = r.seconds * 1e9 / static_cast<double>(r.total_ops);
  if (pending_samples > 0)
    r.avg_pending = pending_sum / static_cast<double>(pending_samples);
  r.peak_pending = pending_peak;
  r.restarts = c.restarts();
  r.recoveries = c.recoveries();
  obs::LatencyHistogram merged;
  for (const auto& h : latency) merged.merge(h);
  if (merged.count() > 0) {
    r.p50_ns = static_cast<double>(merged.percentile(50.0));
    r.p99_ns = static_cast<double>(merged.percentile(99.0));
    r.p999_ns = static_cast<double>(merged.percentile(99.9));
  }
  return r;
}

// Named per-concept entry points (the driver contract names from the header
// comment); each fixes the end discipline for its kind.
template <class ContainerLike>
CaseResult run_one_queue(ContainerLike& c, const CaseConfig& cfg,
                         std::uint64_t run_seed) {
  return run_one_container(c, ContainerKind::kQueue, cfg, run_seed);
}
template <class ContainerLike>
CaseResult run_one_stack(ContainerLike& c, const CaseConfig& cfg,
                         std::uint64_t run_seed) {
  return run_one_container(c, ContainerKind::kStack, cfg, run_seed);
}
template <class ContainerLike>
CaseResult run_one_deque(ContainerLike& c, const CaseConfig& cfg,
                         std::uint64_t run_seed) {
  return run_one_container(c, ContainerKind::kDeque, cfg, run_seed);
}

// Median of cfg.runs fresh runs.
template <class Runner>
CaseResult median_of_runs(const CaseConfig& cfg, Runner&& one_run) {
  std::vector<CaseResult> results;
  results.reserve(cfg.runs);
  for (unsigned i = 0; i < cfg.runs; ++i)
    results.push_back(one_run(cfg.seed + i));
  std::sort(results.begin(), results.end(),
            [](const CaseResult& a, const CaseResult& b) {
              return a.mops < b.mops;
            });
  return results[results.size() / 2];  // median run
}

}  // namespace detail

}  // namespace scot::bench
