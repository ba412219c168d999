// Microbenchmarks of the SMR primitives: the per-call cost of protect /
// dup / operation activation / alloc+retire for every scheme.  These
// expose the mechanism behind the figure-level results: HP pays a fence per
// protect, HE amortizes it per era change, IBR/Hyaline make dup free, and
// HPopt's snapshot scan beats HP's per-node rescan on retire-heavy loads.
//
// protect/* and op/* take an Arg: 1 = asymmetric fences, 0 = classic
// seq_cst publication.  alloc_retire_3t/* takes 1 = track_stats on, 0 =
// off: the stats-cost check.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/core.hpp"

namespace {

using namespace scot;

struct ProbeNode : ReclaimNode {
  std::uint64_t payload = 0;
};

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

// Operation activation: begin_op + the operation's first protect + end_op.
// The first protect is part of the measurement deliberately — HE (and HP)
// have an empty begin_op and only become visible to reclaimers at their
// first slot publish, so begin_op alone would measure zero for exactly the
// scheme whose activation store the asymmetric discipline relaxes.
template <class Smr>
void BM_Op(benchmark::State& state) {
  SmrConfig cfg;
  cfg.max_threads = 2;
  cfg.asymmetric_fences = state.range(0) != 0;
  Smr smr(cfg);
  auto sh = scoped_handle(smr);
  auto& h = sh.get();
  auto* n = h.template alloc<ProbeNode>();
  std::atomic<ReclaimNode*> src{n};
  for (auto _ : state) {
    h.begin_op();
    benchmark::DoNotOptimize(h.protect(src, 0));
    h.end_op();
  }
  h.dealloc_unpublished(n);
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

// The contended case and the stats-cost check: three threads alloc+retire
// into one shared domain, Arg 1 = track_stats on, 0 = off.  The retire/free
// books are per-handle, so the two should cost the same; a shared counter
// on the retire path would show here as a stats-on slowdown.  The domains
// live for the whole process so every benchmark thread joins the same one.
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
  BENCHMARK(BM_Op<scheme>)->Name("op/" #scheme)->Arg(1)->Arg(0);    \
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

}  // namespace

BENCHMARK_MAIN();
