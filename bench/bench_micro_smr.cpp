// Microbenchmarks of the SMR primitives: the per-call cost of protect /
// dup / begin+end / alloc+retire for every scheme.  These expose the
// mechanism behind the figure-level results: HP pays a fence per protect,
// HE amortizes it per era change, IBR/Hyaline make dup free, and HPopt's
// snapshot scan beats HP's per-node rescan on retire-heavy loads.
//
// Two modes:
//  * default           — the google-benchmark suite.  protect/* benchmarks
//                        take an Arg: 1 = asymmetric fences, 0 = classic
//                        seq_cst publication.
//  * --json <path>     — two fixed-iteration latency sweeps per (scheme,
//                        fence discipline), measured in ns and TSC cycles
//                        per call and written as scot-bench v1 cells
//                        (bench "micro_smr", structure "none"):
//                          protect-latency   — a hot protect() loop (the
//                                              PR 3 A/B evidence;
//                                              BENCH_pr3.json is a capture)
//                          begin_op-latency  — operation activation: one
//                                              begin_op + first protect +
//                                              end_op per iteration, the
//                                              era-scheme read-side cost
//                                              the asymmetric activation
//                                              discipline lifts
//                                              (BENCH_pr5.json is a
//                                              capture).
//                        google-benchmark flags are not accepted in this
//                        mode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/report/report.hpp"
#include "common/asymfence.hpp"
#include "common/timing.hpp"
#include "core/core.hpp"

namespace {

using namespace scot;

struct ProbeNode : ReclaimNode {
  std::uint64_t payload = 0;
};

// --- google-benchmark suite -------------------------------------------------

template <class Smr>
void BM_Protect(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.asymmetric_fences = state.range(0) != 0;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<ProbeNode>();
  std::atomic<ReclaimNode*> src{n};
  h.begin_op();
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.protect(src, 0));
  }
  h.end_op();
  h.dealloc_unpublished(n);
}

template <class Smr>
void BM_Dup(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<ProbeNode>();
  std::atomic<ReclaimNode*> src{n};
  h.begin_op();
  (void)h.protect(src, 0);
  for (auto _ : state) {
    h.dup(0, 1);
  }
  h.end_op();
  h.dealloc_unpublished(n);
}

template <class Smr>
void BM_BeginEndOp(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  for (auto _ : state) {
    h.begin_op();
    h.end_op();
  }
}

template <class Smr>
void BM_AllocRetire(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.scan_threshold = 128;  // paper calibration
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  for (auto _ : state) {
    auto* n = h.template alloc<ProbeNode>();
    h.retire(n);
  }
}

// The contended case: three threads alloc+retire into one shared domain,
// Arg 1 = track_stats on, 0 = off.  The retire/free books are per-handle,
// so the two should cost the same; a shared counter on the retire path
// would show here as a stats-on slowdown that the single-threaded guard
// below cannot see.  The domains live for the whole process so every
// benchmark thread joins the same one.
template <class Smr>
Smr& shared_retire_domain(bool track_stats) {
  static const auto make = [](bool track) {
    SmrConfig cfg;
    cfg.max_threads = 3;
    cfg.scan_threshold = 128;  // paper calibration
    cfg.batch_capacity = 128;
    cfg.track_stats = track;
    return cfg;
  };
  static Smr on(make(true));
  static Smr off(make(false));
  return track_stats ? on : off;
}

template <class Smr>
void BM_AllocRetireShared(benchmark::State& state) {
  Smr& smr = shared_retire_domain<Smr>(state.range(0) != 0);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  for (auto _ : state) {
    auto* n = h.template alloc<ProbeNode>();
    h.retire(n);
  }
}

#define SCOT_REGISTER_SCHEME(scheme)                                \
  BENCHMARK(BM_Protect<scheme>)                                     \
      ->Name("protect/" #scheme)                                    \
      ->Arg(1)                                                      \
      ->Arg(0);                                                     \
  BENCHMARK(BM_Dup<scheme>)->Name("dup/" #scheme);                  \
  BENCHMARK(BM_BeginEndOp<scheme>)->Name("op/" #scheme);            \
  BENCHMARK(BM_AllocRetire<scheme>)->Name("alloc_retire/" #scheme); \
  BENCHMARK(BM_AllocRetireShared<scheme>)                           \
      ->Name("alloc_retire_3t/" #scheme)                            \
      ->Arg(1)                                                      \
      ->Arg(0)                                                      \
      ->Threads(3)                                                  \
      ->UseRealTime()

SCOT_REGISTER_SCHEME(NoReclaimDomain);
SCOT_REGISTER_SCHEME(EbrDomain);
SCOT_REGISTER_SCHEME(HpDomain);
SCOT_REGISTER_SCHEME(HpOptDomain);
SCOT_REGISTER_SCHEME(HeDomain);
SCOT_REGISTER_SCHEME(IbrDomain);
SCOT_REGISTER_SCHEME(HyalineDomain);

// --- protect-latency sweep (--json mode) ------------------------------------

inline std::uint64_t read_tsc() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return 0;  // cycles_per_op reported as 0 on non-TSC targets
#endif
}

struct LatencySample {
  double seconds = 0;
  double ns_per_op = 0;
  double cycles_per_op = 0;
  std::uint64_t iters = 0;
};

// Warmup + timed loop (ns and TSC) around one measured call.  Both sweeps
// share this scaffolding so their cells stay comparable: any change to the
// iteration counts or the cycle accounting applies to both.
template <class Body>
LatencySample measure_loop(Body&& body) {
  constexpr std::uint64_t kWarmup = 1u << 14;
  constexpr std::uint64_t kIters = 1u << 21;  // ~2M calls per sample
  for (std::uint64_t i = 0; i < kWarmup; ++i) body();
  const std::uint64_t c0 = read_tsc();
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kIters; ++i) body();
  const std::uint64_t t1 = now_ns();
  const std::uint64_t c1 = read_tsc();

  LatencySample s;
  s.iters = kIters;
  s.seconds = ns_to_sec(t1 - t0);
  s.ns_per_op = static_cast<double>(t1 - t0) / static_cast<double>(kIters);
  s.cycles_per_op =
      c1 > c0 ? static_cast<double>(c1 - c0) / static_cast<double>(kIters)
              : 0.0;
  return s;
}

template <class Smr>
LatencySample measure_protect(bool asym, bool track_stats = true) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.asymmetric_fences = asym;
  cfg.track_stats = track_stats;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<ProbeNode>();
  std::atomic<ReclaimNode*> src{n};
  h.begin_op();
  const LatencySample s =
      measure_loop([&] { benchmark::DoNotOptimize(h.protect(src, 0)); });
  h.end_op();
  h.dealloc_unpublished(n);
  return s;
}

// Operation activation: begin_op + the operation's first protect + end_op.
// The first protect is part of the measurement deliberately — HE (and HP)
// have an empty begin_op and only become visible to reclaimers at their
// first slot publish, so begin_op alone would measure zero for exactly the
// scheme whose activation store the asymmetric discipline relaxes.
template <class Smr>
LatencySample measure_activation(bool asym, bool track_stats = true) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.asymmetric_fences = asym;
  cfg.track_stats = track_stats;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<ProbeNode>();
  std::atomic<ReclaimNode*> src{n};
  const LatencySample s = measure_loop([&] {
    h.begin_op();
    benchmark::DoNotOptimize(h.protect(src, 0));
    h.end_op();
  });
  h.dealloc_unpublished(n);
  return s;
}

void record_sample(bench::BenchReport& report, const char* label,
                   bench::SchemeId id, bool asym, const LatencySample& s,
                   const char* unit) {
  using bench::CaseConfig;
  using bench::CaseResult;
  CaseConfig cfg;
  cfg.structure = bench::StructureId::kNone;
  cfg.scheme = id;
  cfg.threads = 1;
  cfg.key_range = 0;
  cfg.read_pct = 100;
  cfg.insert_pct = 0;
  cfg.delete_pct = 0;
  cfg.millis = 0;
  cfg.op_budget = s.iters;
  cfg.asymmetric_fences = asym;
  CaseResult r;
  r.total_ops = s.iters;
  r.seconds = s.seconds;
  r.mops = static_cast<double>(s.iters) / s.seconds / 1e6;
  r.ns_per_op = s.ns_per_op;
  r.cycles_per_op = s.cycles_per_op;
  report.add("micro_smr", label, cfg, r);
  std::printf("  %-6s %-9s %8.2f ns/%s %9.1f cycles\n",
              bench::scheme_name(id), asym ? "asym" : "classic", s.ns_per_op,
              unit, s.cycles_per_op);
}

template <class Smr>
void sweep_scheme(bench::BenchReport& report, bench::SchemeId id) {
  for (const bool asym : {true, false})
    record_sample(report, "protect-latency", id, asym,
                  measure_protect<Smr>(asym), "protect");
}

template <class Smr>
void sweep_activation(bench::BenchReport& report, bench::SchemeId id) {
  for (const bool asym : {true, false})
    record_sample(report, "begin_op-latency", id, asym,
                  measure_activation<Smr>(asym), "op");
}

// Stats-overhead guard (report-only): the telemetry counters live on the
// retire/scan/join/leave paths, never on protect()/begin_op(), so the asym
// fast path with track_stats on must cost the same as with it off.  A >2%
// delta is almost certainly a regression that put a counter on the fast
// path.  The measured delta is the binary's noise floor and is recorded in
// the report meta (noise_floor_pct) so downstream diffs can calibrate; the
// loud warning is only printed on hosts with real parallelism — on a
// 1-hardware-thread container the sweep measures scheduler jitter, not
// counter cost, and the warning would cry wolf on every CI run.  Returns
// the worst (most positive) delta seen across the two sweeps.
template <class Smr>
double sweep_stats_overhead(bench::SchemeId id, bool warn) {
  const auto pct = [](const LatencySample& on, const LatencySample& off) {
    return off.ns_per_op > 0
               ? (on.ns_per_op - off.ns_per_op) / off.ns_per_op * 100.0
               : 0.0;
  };
  const double protect_pct =
      pct(measure_protect<Smr>(true, true), measure_protect<Smr>(true, false));
  const double act_pct = pct(measure_activation<Smr>(true, true),
                             measure_activation<Smr>(true, false));
  std::printf("  %-6s protect %+6.2f%%  begin_op %+6.2f%%%s\n",
              bench::scheme_name(id), protect_pct, act_pct,
              warn && (protect_pct > 2.0 || act_pct > 2.0)
                  ? "   ** WARNING: stats overhead >2% on asym fast path **"
                  : "");
  return std::max(protect_pct, act_pct);
}

int run_latency_sweep(const std::string& json_path) {
  bench::BenchReport report;
  std::printf("   fence path when asymmetric: %s\n",
              asymfence::runtime_path_name());
  std::printf("== protect-latency: fenced vs. asymmetric ==\n");
  sweep_scheme<NoReclaimDomain>(report, bench::SchemeId::kNR);
  sweep_scheme<EbrDomain>(report, bench::SchemeId::kEBR);
  sweep_scheme<HpDomain>(report, bench::SchemeId::kHP);
  sweep_scheme<HpOptDomain>(report, bench::SchemeId::kHPopt);
  sweep_scheme<HeDomain>(report, bench::SchemeId::kHE);
  sweep_scheme<IbrDomain>(report, bench::SchemeId::kIBR);
  sweep_scheme<HyalineDomain>(report, bench::SchemeId::kHLN);
  std::printf(
      "== begin_op-latency (activation: begin_op + first protect + end_op) "
      "==\n");
  sweep_activation<NoReclaimDomain>(report, bench::SchemeId::kNR);
  sweep_activation<EbrDomain>(report, bench::SchemeId::kEBR);
  sweep_activation<HpDomain>(report, bench::SchemeId::kHP);
  sweep_activation<HpOptDomain>(report, bench::SchemeId::kHPopt);
  sweep_activation<HeDomain>(report, bench::SchemeId::kHE);
  sweep_activation<IbrDomain>(report, bench::SchemeId::kIBR);
  sweep_activation<HyalineDomain>(report, bench::SchemeId::kHLN);
  std::printf(
      "== stats overhead (asym path, track_stats on vs off; guard <2%%) "
      "==\n");
  const bool warn = report.meta().hardware_threads > 1;
  double floor = 0.0;
  floor = std::max(floor, sweep_stats_overhead<NoReclaimDomain>(
                              bench::SchemeId::kNR, warn));
  floor = std::max(floor,
                   sweep_stats_overhead<EbrDomain>(bench::SchemeId::kEBR, warn));
  floor = std::max(floor,
                   sweep_stats_overhead<HpDomain>(bench::SchemeId::kHP, warn));
  floor = std::max(floor, sweep_stats_overhead<HpOptDomain>(
                              bench::SchemeId::kHPopt, warn));
  floor = std::max(floor,
                   sweep_stats_overhead<HeDomain>(bench::SchemeId::kHE, warn));
  floor = std::max(floor,
                   sweep_stats_overhead<IbrDomain>(bench::SchemeId::kIBR, warn));
  floor = std::max(floor, sweep_stats_overhead<HyalineDomain>(
                              bench::SchemeId::kHLN, warn));
  report.meta().noise_floor_pct = floor;
  if (!warn)
    std::printf(
        "  (1 hardware thread: deltas above are scheduler jitter; warning "
        "suppressed, noise floor %.2f%% recorded in report meta)\n",
        floor);
  std::string error;
  if (!report.write_file(json_path, &error)) {
    std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("wrote %zu cell(s) to %s\n", report.cells().size(),
              json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Our flags are peeled off by hand (extract_bench_flags would reject the
  // --benchmark_* flags google-benchmark owns in the default mode).
  std::string json_path;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    if (rest.size() > 1) {
      std::fprintf(stderr,
                   "%s: --json mode takes no other arguments (got '%s')\n",
                   argv[0], rest[1]);
      return 2;
    }
    return run_latency_sweep(json_path);
  }
  int bench_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&bench_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, rest.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
