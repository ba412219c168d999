// scot_perfbench — the measuring program behind perfbench/run.py.
//
//   scot_perfbench --workload <list-hp|tree-hln|kv-ycsb-a> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Prints one JSON object (metrics, outcome check, run facts) on stdout.
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics: an untraced and a traced window, counter deltas over
// the traced window, the layer ladder and the SMR primitive timings, and
// writes the traced window's spans to --trace-out (Chrome trace format).
//
// Every workload is a closed loop: kWorkers threads pinned to CPUs
// 0..kWorkers-1 each issue their next operation when the previous one
// returns.  The driver thread (sub-window clock, 2 ms pending-node sampler)
// runs on CPU kWorkers.
#include <malloc.h>

#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/asymfence.hpp"
#include "targets.hpp"

namespace perfbench {
namespace {

using scot::SchemeId;
using scot::StructureId;

constexpr unsigned kDriverCpu = kWorkers;
constexpr std::uint64_t kSampleStride = 32;   // latency: one op in 32
constexpr std::uint64_t kTraceStride = 1024;  // spans: one op in 1024
constexpr std::size_t kTraceCap = 8192;       // op spans kept per worker
constexpr unsigned kSubWindows = 10;
constexpr double kWarmupS = 0.5;
constexpr std::uint64_t kPendingPeriodNs = 2'000'000;
constexpr int kLadderRounds = 5;  // timed rounds per rung, after one warm-up

// Stream tags: each (seed, worker, stream) triple is an independent RNG.
enum Stream : std::uint64_t {
  kStreamPrefill = 1,
  kStreamMeasure,
  kStreamTraced,
  kStreamLadder,
  kStreamGen,
};

struct Spec {
  const char* name;
  bool kv;  // string-keyed serving workload (KvStore), else integer map
  SchemeId scheme;
  StructureId structure;
  std::uint64_t key_range;
  unsigned read_pct, insert_pct;  // the rest erase
  double zipf_theta;              // 0 = uniform keys
  std::size_t value_len;          // bytes per kv value
  unsigned shards;
  int setup_reps;  // setups per --trace 0 run; setup_s is their median
  std::uint64_t ladder_ops;  // per worker per rung round
};

// list-hp: Fig 8a, HP protect + traversal dominate (~128 nodes per op).
// tree-hln: Fig 9b, short ops where per-op fixed costs weigh most.
// kv-ycsb-a: the serving layer on a working set larger than L3.
constexpr Spec kSpecs[] = {
    {"list-hp", false, SchemeId::kHP, StructureId::kHListWF, 512, 50, 25, 0.0,
     32, 1, 31, 60'000},
    {"tree-hln", false, SchemeId::kHLN, StructureId::kNMTree, 100'000, 50, 25,
     0.0, 32, 1, 9, 150'000},
    {"kv-ycsb-a", true, SchemeId::kEBR, StructureId::kKvHash, 1'000'000, 50,
     50, 0.99, 128, 8, 3, 100'000},
};

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// --- inputs ------------------------------------------------------------------

struct Inputs {
  const Spec& spec;
  std::vector<std::uint64_t> initial;  // keys loaded before the run
  std::vector<std::uint8_t> member;    // initial membership by key
  std::unique_ptr<Zipf> zipf;
};

Inputs make_inputs(const Spec& s, std::uint64_t seed) {
  Inputs in{s, {}, {}, nullptr};
  std::vector<std::uint64_t> keys(s.key_range);
  std::iota(keys.begin(), keys.end(), 0);
  if (s.kv) {
    in.initial = std::move(keys);  // a loaded store: every key present
  } else {
    // A seeded half of the key range (partial Fisher-Yates).
    Rng rng(seed, 0, kStreamPrefill);
    const std::uint64_t half = s.key_range / 2;
    for (std::uint64_t i = 0; i < half; ++i)
      std::swap(keys[i], keys[i + rng.below(s.key_range - i)]);
    keys.resize(half);
    in.initial = std::move(keys);
  }
  in.member.assign(s.key_range, 0);
  for (const std::uint64_t k : in.initial) in.member[k] = 1;
  if (s.zipf_theta > 0)
    in.zipf = std::make_unique<Zipf>(s.key_range, s.zipf_theta);
  return in;
}

class OpGen {
 public:
  OpGen(const Inputs& in, std::uint64_t seed, unsigned worker,
        std::uint64_t stream)
      : spec_(in.spec), zipf_(in.zipf.get()), rng_(seed, worker, stream) {}

  Op next() {
    // rank + 1: mix64 fixes 0, which would make the hottest key 0.
    const std::uint64_t key =
        zipf_ != nullptr ? mix64(zipf_->next(rng_) + 1) % spec_.key_range
                         : rng_.below(spec_.key_range);
    const std::uint64_t roll = rng_.below(100);
    const OpKind kind = roll < spec_.read_pct ? kRead
                        : roll < spec_.read_pct + spec_.insert_pct
                            ? kInsert
                            : kErase;
    return {key, kind};
  }

 private:
  const Spec& spec_;
  const Zipf* zipf_;
  Rng rng_;
};

using Tallies = std::vector<std::vector<std::int32_t>>;

Tallies make_tallies(const Spec& s) {
  return Tallies(kWorkers, std::vector<std::int32_t>(s.key_range, 0));
}

Ctx make_ctx(unsigned worker, const Spec& s, Tallies* tallies, bool must_hit) {
  Ctx c;
  c.worker = worker;
  c.value_len = s.value_len;
  c.must_hit = must_hit;
  c.tally = tallies != nullptr ? (*tallies)[worker].data() : nullptr;
  return c;
}

void pin_or_die(unsigned cpu) {
  if (!pin_to_cpu(cpu)) {
    std::fprintf(stderr, "scot_perfbench: cannot pin a thread to CPU %u\n",
                 cpu);
    std::exit(2);
  }
}

void sleep_until_ns(std::uint64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

// Bytes the allocator has handed out and not had back.
double malloc_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

// --- spans -------------------------------------------------------------------

struct OpSpan {
  std::uint64_t t_gen, t_call, t_end, key;
  OpKind kind;
};

// Keeps spans in memory during the run and writes them once at the end.
// Worker op spans go to per-worker buffers (no sharing on the hot path);
// the rare boundary spans take a mutex.
class Tracer {
 public:
  Tracer() : ops_(kWorkers) {
    for (auto& v : ops_) v.reserve(kTraceCap);
  }

  void span(std::string name, unsigned tid, std::uint64_t t0,
            std::uint64_t t1, std::string args = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), tid, t0, t1, std::move(args)});
  }
  bool want_op(unsigned w) const { return ops_[w].size() < kTraceCap; }
  void op(unsigned w, const OpSpan& s) { ops_[w].push_back(s); }
  std::size_t op_count() const {
    std::size_t n = 0;
    for (const auto& v : ops_) n += v.size();
    return n;
  }

  // Chrome trace-event JSON.  Each sampled op becomes three spans that share
  // one "op" id: the op itself, and its two children — key generation plus
  // formatting in the driver, and the library call.
  bool write(const std::string& path, const char* target, bool kv) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t origin = UINT64_MAX;
    for (const auto& s : spans_) origin = std::min(origin, s.t0);
    for (const auto& v : ops_)
      for (const auto& o : v) origin = std::min(origin, o.t_gen);
    const auto us = [origin](std::uint64_t t) {
      return static_cast<double>(t - origin) / 1e3;
    };
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    const auto event = [&](const char* name, unsigned tid, std::uint64_t t0,
                           std::uint64_t t1, const std::string& args) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                   first ? "" : ",\n", name, tid, us(t0),
                   static_cast<double>(t1 - t0) / 1e3, args.c_str());
      first = false;
    };
    for (const auto& s : spans_) event(s.name.c_str(), s.tid, s.t0, s.t1, s.args);
    static const char* const kMapCalls[] = {"contains", "insert", "erase"};
    static const char* const kKvCalls[] = {"get", "put", "erase"};
    std::uint64_t id = 0;
    for (unsigned w = 0; w < kWorkers; ++w) {
      for (const auto& o : ops_[w]) {
        ++id;
        const char* call = (kv ? kKvCalls : kMapCalls)[o.kind];
        const std::string op_name = std::string("op.") + call;
        const std::string call_name = std::string(target) + "::" + call;
        const std::string args_root =
            "\"op\":" + std::to_string(id) + ",\"key\":" + std::to_string(o.key);
        const std::string args_child =
            "\"op\":" + std::to_string(id) + ",\"parent\":\"" + op_name + "\"";
        event(op_name.c_str(), w, o.t_gen, o.t_end, args_root);
        event("driver.gen", w, o.t_gen, o.t_call, args_child);
        event(call_name.c_str(), w, o.t_call, o.t_end, args_child);
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    unsigned tid;
    std::uint64_t t0, t1;
    std::string args;
  };
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::vector<OpSpan>> ops_;
};

// Reads the public observers, as a span when tracing.
template <class T>
Counters read_counters(const T& t, Tracer* tracer, const char* label) {
  const std::uint64_t t0 = now_ns();
  Counters c = t.counters();
  c.heap_bytes = malloc_in_use();
  if (tracer != nullptr) {
    char args[256];
    std::snprintf(args, sizeof(args),
                  "\"at\":\"%s\",\"retires\":%" PRIu64 ",\"scans\":%" PRIu64
                  ",\"restarts\":%" PRIu64 ",\"recoveries\":%" PRIu64,
                  label, c.stats.retires, c.stats.scans, c.restarts,
                  c.recoveries);
    tracer->span("stats", kDriverCpu, t0, now_ns(), args);
  }
  return c;
}

// --- set-up ------------------------------------------------------------------

template <class T>
struct Built {
  std::unique_ptr<T> target;
  double seconds = 0;      // construct + load
  double bytes = 0;        // allocator bytes the load kept
  std::uint64_t ops = 0;   // load calls made
  std::uint64_t failed = 0;
  Counters loaded;         // observers right after the load
};

// Constructs a target and loads the initial keys through its sessions.
// Every load call must report a new key.  The kv store is loaded by the
// pinned workers, one slice each; a map's prefill is small enough that
// starting threads would dominate its time, so the driver thread does it.
template <class T, class Make>
Built<T> build(Make&& make, const Inputs& in, Tracer* tracer) {
  Built<T> b;
  std::atomic<std::uint64_t> failed{0};
  const unsigned loaders = in.spec.kv ? kWorkers : 1;
  const auto load = [&](unsigned w) {
    Ctx c = make_ctx(w, in.spec, nullptr, false);
    auto s = b.target->open();
    std::uint64_t bad = 0;
    for (std::size_t i = w; i < in.initial.size(); i += loaders) {
      const Op op{in.initial[i], kInsert};
      T::prepare(op, c);
      if (!T::apply(s, op, c)) ++bad;
    }
    failed.fetch_add(bad);
  };
  const double mem0 = malloc_in_use();
  const std::uint64_t t0 = now_ns();
  b.target = make();
  if (loaders == 1) {
    load(0);
  } else {
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < loaders; ++w) {
      ts.emplace_back([&, w] {
        pin_or_die(w);
        load(w);
      });
    }
    for (auto& t : ts) t.join();
  }
  const std::uint64_t t1 = now_ns();
  b.seconds = static_cast<double>(t1 - t0) / 1e9;
  b.bytes = malloc_in_use() - mem0;
  b.ops = in.initial.size();
  b.failed = failed.load();
  b.loaded = b.target->counters();
  if (tracer != nullptr) tracer->span("setup.load", kDriverCpu, t0, t1);
  return b;
}

// Checks the final state: per key, membership must equal the initial
// membership plus every worker's successful inserts minus its successful
// erases, and every value read back must name its key.  Returns the count
// of keys (and reads) that disagree.
template <class T>
std::uint64_t verify(T& target, const Inputs& in, const Tallies& tallies) {
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kWorkers; ++w) {
    ts.emplace_back([&, w] {
      pin_or_die(w);
      Ctx c = make_ctx(w, in.spec, nullptr, false);
      auto s = target.open();
      std::uint64_t bad = 0;
      for (std::uint64_t k = w; k < in.spec.key_range; k += kWorkers) {
        std::int64_t expected = in.member[k];
        for (const auto& t : tallies) expected += t[k];
        if (expected != (T::present(s, k, c) ? 1 : 0)) ++bad;
      }
      failed.fetch_add(bad + c.bad);
    });
  }
  for (auto& t : ts) t.join();
  return failed.load();
}

// --- the measured window -----------------------------------------------------

struct Window {
  double seconds = 0;
  std::uint64_t ops = 0;        // completed inside the window
  std::uint64_t attempted = 0;  // including warm-up
  std::uint64_t bad = 0;
  std::vector<double> sub_mops;
  // Sampled latencies, packed (see pack_sample) and sorted, so each
  // (sub-window, kind) group is one contiguous run.
  std::vector<std::uint32_t> lat;
  std::uint64_t read_samples = 0, update_samples = 0;
  double pending_sum = 0;
  std::uint64_t pending_samples = 0;
  Counters before, after;

  double mops() const { return median(sub_mops); }
  double unreclaimed_avg() const {
    return pending_samples == 0
               ? 0
               : pending_sum / static_cast<double>(pending_samples);
  }
};

struct alignas(64) Progress {
  std::atomic<std::uint64_t> done{0};
};

// A latency sample in 32 bits: sub-window << 25 | is_update << 24 | ns,
// with ns clamped below 2^24 (16.7 ms).
constexpr std::uint32_t kMaxSampleNs = (1u << 24) - 1;
static_assert(kSubWindows < 128);

constexpr std::uint32_t pack_sample(unsigned sub, bool update,
                                    std::uint64_t ns) {
  return static_cast<std::uint32_t>(sub) << 25 |
         static_cast<std::uint32_t>(update) << 24 |
         static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, kMaxSampleNs));
}

// Runs kWorkers closed-loop workers over `target` for kWarmupS + `seconds`.
// The window is cut into kSubWindows equal sub-windows; each end-to-end
// figure is the median over sub-windows of that sub-window's figure, which
// keeps a short disturbance of the shared host from moving it.  Latency is
// sampled on one op in kSampleStride and covers the library call only.
template <class T>
Window run_window(T& target, const Inputs& in, std::uint64_t seed,
                  std::uint64_t stream, double seconds, Tallies& tallies,
                  Tracer* tracer) {
  // 0 = warm-up, i in [1, kSubWindows] = measuring sub-window i-1.  kPark
  // holds every worker between two ops, so the driver can read the plain
  // (non-atomic) restart and recovery tallies without racing their writers.
  constexpr int kWarm = 0, kPark = kSubWindows + 1, kStop = kSubWindows + 2;
  std::atomic<int> phase{kWarm};
  std::atomic<unsigned> parked{0};
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<Progress> progress(kWorkers);
  // One buffer, a region per worker, sized for 6 Mops/s in total and
  // touched up front: its resident size is the same in every run, and the
  // percentiles are computed in place without a second copy.
  const auto cap = static_cast<std::size_t>(seconds * 6e6 / kWorkers /
                                            kSampleStride) + 1024;
  std::vector<std::uint32_t> samples(cap * kWorkers);
  std::vector<std::size_t> nsamples(kWorkers, 0);
  std::vector<std::uint64_t> bad(kWorkers, 0);
  const bool must_hit = in.spec.kv;

  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kWorkers; ++w) {
    ts.emplace_back([&, w] {
      pin_or_die(w);
      Ctx c = make_ctx(w, in.spec, &tallies, must_hit);
      std::uint32_t* lat = samples.data() + w * cap;
      std::size_t nlat = 0;
      OpGen gen(in, seed, w, stream);
      const std::uint64_t t_open = now_ns();
      auto s = target.open();
      if (tracer != nullptr)
        tracer->span("session.open", w, t_open, now_ns());
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t n = 0;;) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) break;
        if (ph == kPark) {
          parked.fetch_add(1, std::memory_order_release);
          while (phase.load(std::memory_order_acquire) == kPark)
            std::this_thread::yield();
          continue;
        }
        const bool sampled = ph != kWarm && n % kSampleStride == 0;
        const bool traced = sampled && tracer != nullptr &&
                            n % kTraceStride == 0 && tracer->want_op(w);
        const std::uint64_t t_gen = traced ? now_ns() : 0;
        const Op op = gen.next();
        T::prepare(op, c);
        if (sampled) {
          const std::uint64_t t0 = now_ns();
          const bool ok = T::apply(s, op, c);
          const std::uint64_t t1 = now_ns();
          c.record(op, ok);
          if (nlat < cap)
            lat[nlat++] = pack_sample(ph - 1, op.kind != kRead, t1 - t0);
          if (traced) tracer->op(w, {t_gen, t0, t1, op.key, op.kind});
        } else {
          c.record(op, T::apply(s, op, c));
        }
        progress[w].done.store(++n, std::memory_order_relaxed);
      }
      nsamples[w] = nlat;
      bad[w] = c.bad;
    });
  }

  const auto done = [&] {
    std::uint64_t n = 0;
    for (const auto& p : progress) n += p.done.load(std::memory_order_relaxed);
    return n;
  };
  const auto park = [&] {
    parked.store(0, std::memory_order_relaxed);
    phase.store(kPark, std::memory_order_release);
    while (parked.load(std::memory_order_acquire) < kWorkers)
      std::this_thread::yield();
  };
  Window win;
  while (ready.load() < kWorkers) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  sleep_until_ns(now_ns() + static_cast<std::uint64_t>(kWarmupS * 1e9));

  park();
  win.before = read_counters(target, tracer, "window.begin");
  std::uint64_t prev_ops = done();
  const std::uint64_t start_ops = prev_ops;
  std::uint64_t prev_t = now_ns();
  const std::uint64_t start_t = prev_t;
  phase.store(1, std::memory_order_release);
  const auto sub_ns = static_cast<std::uint64_t>(seconds * 1e9 / kSubWindows);
  std::uint64_t next_sub = start_t + sub_ns;
  std::uint64_t next_tick = start_t;
  while (win.sub_mops.size() < kSubWindows) {
    sleep_until_ns(std::min(next_tick, next_sub));
    const std::uint64_t now = now_ns();
    if (now >= next_tick) {
      win.pending_sum += static_cast<double>(target.pending());
      ++win.pending_samples;
      while (next_tick <= now) next_tick += kPendingPeriodNs;
    }
    if (now >= next_sub) {
      const std::uint64_t ops = done();
      win.sub_mops.push_back(static_cast<double>(ops - prev_ops) * 1e3 /
                             static_cast<double>(now - prev_t));
      prev_ops = ops;
      prev_t = now;
      next_sub += sub_ns;
      if (win.sub_mops.size() < kSubWindows)
        phase.store(static_cast<int>(win.sub_mops.size()) + 1,
                    std::memory_order_release);
    }
  }
  win.seconds = static_cast<double>(prev_t - start_t) / 1e9;
  park();
  win.after = read_counters(target, tracer, "window.end");
  win.ops = done() - start_ops;  // the ops the counter deltas cover
  phase.store(kStop, std::memory_order_release);
  for (auto& t : ts) t.join();
  if (tracer != nullptr) tracer->span("window", kDriverCpu, start_t, prev_t);

  win.attempted = done();
  std::size_t n = 0;
  for (unsigned w = 0; w < kWorkers; ++w) {
    std::copy_n(samples.begin() + w * cap, nsamples[w], samples.begin() + n);
    n += nsamples[w];
    win.bad += bad[w];
  }
  samples.resize(n);
  std::sort(samples.begin(), samples.end());
  for (const std::uint32_t x : samples)
    ++(x >> 24 & 1u ? win.update_samples : win.read_samples);
  win.lat = std::move(samples);
  return win;
}

// --- the layer ladder --------------------------------------------------------

using Streams = std::vector<std::vector<Op>>;

// One replay of every worker's pre-generated op stream through `target`.
// Returns ns per op: summed worker busy time over ops replayed.
template <class T>
double replay(T& target, const Inputs& in, const Streams& streams,
              Tallies& tallies, std::uint64_t& bad) {
  std::barrier sync(kWorkers);
  std::vector<std::uint64_t> busy(kWorkers, 0), nbad(kWorkers, 0);
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kWorkers; ++w) {
    ts.emplace_back([&, w] {
      pin_or_die(w);
      Ctx c = make_ctx(w, in.spec, &tallies, in.spec.kv);
      auto s = target.open();
      sync.arrive_and_wait();
      const std::uint64_t t0 = now_ns();
      for (const Op& op : streams[w]) {
        T::prepare(op, c);
        c.record(op, T::apply(s, op, c));
      }
      busy[w] = now_ns() - t0;
      nbad[w] = c.bad;
    });
  }
  for (auto& t : ts) t.join();
  std::uint64_t ns = 0, ops = 0;
  for (unsigned w = 0; w < kWorkers; ++w) {
    ns += busy[w];
    ops += streams[w].size();
    bad += nbad[w];
  }
  return static_cast<double>(ns) / static_cast<double>(ops);
}

struct Rung {
  const char* label;
  std::function<double()> replay;
  std::function<std::uint64_t()> verify;  // failed ops, after the ladder
  std::vector<double> ns;                 // one per timed round
};

// Replays every rung once per round, rotating the order each round so no
// rung always runs first; round 0 is a warm-up.  All rungs stay built for
// the whole ladder, so paired rounds see the same machine state.
void run_ladder(std::vector<Rung>& rungs, Tracer& tracer) {
  for (int round = 0; round <= kLadderRounds; ++round) {
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      Rung& g = rungs[(i + static_cast<std::size_t>(round)) % rungs.size()];
      const std::uint64_t t0 = now_ns();
      const double ns = g.replay();
      tracer.span(std::string("ladder.") + g.label, kDriverCpu, t0, now_ns());
      if (round > 0) g.ns.push_back(ns);
    }
  }
}

// Median over rounds of the paired per-round difference upper - lower.
double rung_delta(const Rung& lower, const Rung& upper) {
  std::vector<double> d;
  for (std::size_t i = 0; i < lower.ns.size(); ++i)
    d.push_back(upper.ns[i] - lower.ns[i]);
  return median(d);
}

// A built surface with its own outcome tallies.  `check` runs the final
// state check; off for a second surface over an already checked structure.
template <class T>
Rung make_rung(const char* label, std::shared_ptr<T> target, const Inputs& in,
               const Streams& streams, std::shared_ptr<Tallies> tallies,
               bool check) {
  auto bad = std::make_shared<std::uint64_t>(0);
  return {label,
          [=, &in, &streams] {
            return replay(*target, in, streams, *tallies, *bad);
          },
          [=, &in] { return *bad + (check ? verify(*target, in, *tallies) : 0); },
          {}};
}

// --- primitive timings -------------------------------------------------------

struct ProbeNode : scot::ReclaimNode {
  std::uint64_t payload = 0;
};

struct Prims {
  double protect_ns = 0, begin_end_ns = 0, retire_ns = 0;
};

template <class F>
double median_of_rounds(int rounds, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < rounds; ++i) v.push_back(f());
  return median(v);
}

// Times the domain's public calls on one session joined from a pinned
// worker thread, the way a worker joins.
template <class Smr>
Prims time_primitives(Smr& smr) {
  Prims p;
  std::thread t([&] {
    pin_or_die(0);
    auto sh = scot::scoped_handle(smr);
    auto& h = *sh;
    constexpr std::uint64_t kIters = 1u << 20;
    auto* node = h.template alloc<ProbeNode>();
    std::atomic<scot::ReclaimNode*> src{node};
    p.protect_ns = median_of_rounds(7, [&] {
      h.begin_op();
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < kIters; ++i) keep(h.protect(src, 0));
      const std::uint64_t t1 = now_ns();
      h.end_op();
      return static_cast<double>(t1 - t0) / kIters;
    });
    // Activation includes the op's first protect: HP publishes nothing in
    // begin_op and becomes visible to reclaimers at that protect.
    p.begin_end_ns = median_of_rounds(7, [&] {
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < kIters; ++i) {
        h.begin_op();
        keep(h.protect(src, 0));
        h.end_op();
      }
      return static_cast<double>(now_ns() - t0) / kIters;
    });
    h.dealloc_unpublished(node);
    // Retire amortised over whole scan periods: 64 x scan_threshold nodes
    // per round, allocated before the clock starts.
    const std::size_t batch = 64u * smr.config().scan_threshold;
    std::vector<ProbeNode*> nodes(batch);
    p.retire_ns = median_of_rounds(7, [&] {
      for (auto*& n : nodes) n = h.template alloc<ProbeNode>();
      const std::uint64_t t0 = now_ns();
      for (auto* n : nodes) h.retire(n);
      return static_cast<double>(now_ns() - t0) / static_cast<double>(batch);
    });
  });
  t.join();
  return p;
}

// kv_hash over the workload's own keys, formatted as the kv layer sees them.
double time_kv_hash(const std::vector<Op>& stream) {
  constexpr std::size_t kKeys = 4096;
  std::vector<char> keys(kKeys * kKeyLen);
  for (std::size_t i = 0; i < kKeys; ++i)
    format_key(&keys[i * kKeyLen], stream[i % stream.size()].key);
  double ns = 0;
  std::thread t([&] {
    pin_or_die(0);
    ns = median_of_rounds(7, [&] {
      constexpr int kPasses = 256;
      std::uint64_t acc = 0;
      const std::uint64_t t0 = now_ns();
      for (int p = 0; p < kPasses; ++p)
        for (std::size_t i = 0; i < kKeys; ++i)
          acc ^= scot::kv_hash({&keys[i * kKeyLen], kKeyLen});
      const std::uint64_t t1 = now_ns();
      keep(acc);
      return static_cast<double>(t1 - t0) / (kKeys * kPasses);
    });
  });
  t.join();
  return ns;
}

// The driver's own share of an op: drawing it and formatting it.
template <class T>
double time_gen(const Inputs& in, std::uint64_t seed) {
  double ns = 0;
  std::thread t([&] {
    pin_or_die(0);
    Ctx c = make_ctx(0, in.spec, nullptr, false);
    OpGen gen(in, seed, 0, kStreamGen);
    ns = median_of_rounds(5, [&] {
      constexpr int kOps = 1 << 18;
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kOps; ++i) {
        const Op op = gen.next();
        T::prepare(op, c);
        keep(op.key);
        keep(c.key[kKeyLen - 1]);
      }
      return static_cast<double>(now_ns() - t0) / kOps;
    });
  });
  t.join();
  return ns;
}

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // what a ratio is normalised by
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit,
           std::string base = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(base)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void note(std::string key, std::uint64_t value) {
    note(std::move(key), std::to_string(value));
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void print_result(const Result& r) {
  std::printf("{\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"base\":\"%s\"}",
                i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(),
                json_escape(m.base).c_str());
  }
  std::printf("},\"info\":{");
  for (std::size_t i = 0; i < r.info.size(); ++i)
    std::printf("%s\"%s\":\"%s\"", i == 0 ? "" : ",", r.info[i].first.c_str(),
                json_escape(r.info[i].second).c_str());
  std::printf("}}\n");
}

// Median over sub-windows of the sub-window percentile q (kind 0 = reads).
double latency(const Window& w, unsigned kind, double q) {
  std::vector<double> per_sub;
  for (unsigned sub = 0; sub < kSubWindows; ++sub) {
    const auto lo = std::lower_bound(w.lat.begin(), w.lat.end(),
                                     pack_sample(sub, kind, 0));
    const auto hi = std::upper_bound(lo, w.lat.end(),
                                     pack_sample(sub, kind, kMaxSampleNs));
    per_sub.push_back(percentile_sorted(
        lo, static_cast<std::size_t>(hi - lo), q,
        [](std::uint32_t x) { return x & kMaxSampleNs; }));
  }
  return median(per_sub);
}

void add_latency(Result& r, const Window& w) {
  r.note("read_samples", w.read_samples);
  r.note("update_samples", w.update_samples);
  r.add("read_p50_ns", latency(w, 0, 50), "ns");
  r.add("read_p99_ns", latency(w, 0, 99), "ns");
  r.add("update_p50_ns", latency(w, 1, 50), "ns");
  r.add("update_p99_ns", latency(w, 1, 99), "ns");
}

std::string per_kop_base(std::uint64_t delta, const char* what,
                         std::uint64_t ops) {
  return std::to_string(delta) + " " + what + " / " + std::to_string(ops) +
         " ops in the traced window";
}

double per_kop(std::uint64_t delta, std::uint64_t ops) {
  return ops == 0 ? 0 : static_cast<double>(delta) * 1e3 /
                            static_cast<double>(ops);
}

// --- the two run kinds -------------------------------------------------------

// The kv layer's resize and footprint figures, taken from a store's load.
void add_load_metrics(Result& r, const Built<KvStoreTarget>& b,
                      const std::string& store) {
  r.add("kv.bucket_count", static_cast<double>(b.loaded.bucket_count), "count",
        "buckets of " + store + " after its load");
  r.add("kv.migrated_buckets", static_cast<double>(b.loaded.migrated_buckets),
        "count", "buckets migrated by resizes while loading " + store);
  r.add("kv.bytes_per_key", b.bytes / static_cast<double>(b.ops), "B",
        std::to_string(b.ops) + " keys loaded into " + store);
}

template <class Main>
std::unique_ptr<Main> make_main(const Spec& s) {
  if constexpr (std::is_same_v<Main, KvStoreTarget>) {
    return std::make_unique<Main>(s.scheme, kv_shape(s.key_range, s.shards));
  } else {
    return std::make_unique<Main>(s.scheme, s.structure);
  }
}

template <class Main>
Result run_end_to_end(const Args& a, const Inputs& in) {
  const Spec& s = in.spec;
  Result r;
  std::vector<double> setups;
  Built<Main> b;
  for (int rep = 0; rep < s.setup_reps; ++rep) {
    b = Built<Main>{};  // the previous store is gone before the clock starts
    b = build<Main>([&] { return make_main<Main>(s); },
                    in, nullptr);
    setups.push_back(b.seconds);
    r.attempted += b.ops;
    r.failed += b.failed;
  }
  const double loaded_rss_mb = peak_rss_mb();
  Tallies tallies = make_tallies(s);
  Window w = run_window(*b.target, in, a.seed, kStreamMeasure, a.seconds,
                        tallies, nullptr);
  const std::uint64_t mismatched = verify(*b.target, in, tallies);
  r.attempted += w.attempted + s.key_range;
  r.failed += w.bad + mismatched;

  r.add("throughput_mops", w.mops(), "Mops/s");
  add_latency(r, w);
  r.add("unreclaimed_avg", w.unreclaimed_avg(), "nodes");
  r.add("loaded_rss_mb", loaded_rss_mb, "MB");
  r.note("peak_rss_mb", std::to_string(peak_rss_mb()));
  r.add("setup_s", median(setups), "s");
  r.note("window_ops", w.ops);
  r.note("window_s", std::to_string(w.seconds));
  std::string rates;
  for (const double m : w.sub_mops)
    rates += (rates.empty() ? "" : ",") + std::to_string(m);
  r.note("sub_window_mops", rates);
  r.note("pending_samples", w.pending_samples);
  r.note("setup_reps", static_cast<std::uint64_t>(s.setup_reps));
  return r;
}

template <class Main, class MapTyped, class KvTyped>
Result run_traced(const Args& a, const Inputs& in) {
  const Spec& s = in.spec;
  Result r;
  Tracer tracer;
  const KvShape rung_shape = kv_shape(in.initial.size(), 1);

  // Untraced, then traced, on one structure: their throughput ratio is the
  // tracing overhead.  Counter deltas come from the traced window.
  double traced_mops = 0, untraced_mops = 0;
  Window tw;
  {
    Built<Main> b = build<Main>(
        [&] { return make_main<Main>(s); }, in, &tracer);
    r.attempted += b.ops;
    r.failed += b.failed;
    Tallies tallies = make_tallies(s);
    Window uw = run_window(*b.target, in, a.seed, kStreamMeasure,
                           a.seconds / 2, tallies, nullptr);
    tw = run_window(*b.target, in, a.seed, kStreamTraced, a.seconds / 2,
                    tallies, &tracer);
    untraced_mops = uw.mops();
    traced_mops = tw.mops();
    const std::uint64_t t0 = now_ns();
    r.failed += uw.bad + tw.bad + verify(*b.target, in, tallies);
    tracer.span("verify", kDriverCpu, t0, now_ns());
    r.attempted += uw.attempted + tw.attempted + s.key_range;
    if constexpr (std::is_same_v<Main, KvStoreTarget>)
      add_load_metrics(r, b, "the measured store");
  }

  const std::uint64_t ops = tw.ops;
  const auto& s0 = tw.before.stats;
  const auto& s1 = tw.after.stats;
  r.add("smr.retires_per_kop", per_kop(s1.retires - s0.retires, ops), "1/kop",
        per_kop_base(s1.retires - s0.retires, "retires", ops));
  r.add("smr.scans_per_kop", per_kop(s1.scans - s0.scans, ops), "1/kop",
        per_kop_base(s1.scans - s0.scans, "scans", ops));
  const std::uint64_t scans = s1.scans - s0.scans;
  const std::uint64_t freed = s1.nodes_reclaimed - s0.nodes_reclaimed;
  r.add("smr.reclaimed_per_scan",
        scans == 0 ? 0 : static_cast<double>(freed) / static_cast<double>(scans),
        "nodes", std::to_string(freed) + " nodes freed / " +
                     std::to_string(scans) + " scans in the traced window");
  r.add("smr.limbo_peak", static_cast<double>(s1.limbo_peak), "nodes",
        "largest limbo list or open batch of any handle");
  r.add("smr.heavy_barriers_per_kop",
        per_kop(s1.heavy_barriers - s0.heavy_barriers, ops), "1/kop",
        per_kop_base(s1.heavy_barriers - s0.heavy_barriers, "heavy barriers",
                     ops));
  r.add("smr.scan_p99_ns", s1.scan_p99_ns, "ns",
        std::to_string(s1.scan_count) + " scans timed by the domain");
  r.add("core.restarts_per_kop", per_kop(tw.after.restarts - tw.before.restarts,
                                         ops),
        "1/kop",
        per_kop_base(tw.after.restarts - tw.before.restarts, "restarts", ops));
  r.add("core.recoveries_per_kop",
        per_kop(tw.after.recoveries - tw.before.recoveries, ops), "1/kop",
        per_kop_base(tw.after.recoveries - tw.before.recoveries, "recoveries",
                     ops));
  r.add("smr.pool_growth_mb_per_s",
        (tw.after.heap_bytes - tw.before.heap_bytes) / 1048576.0 / tw.seconds,
        "MB/s", "allocator bytes gained over the traced window");
  r.add("driver.trace_overhead_pct",
        (untraced_mops - traced_mops) / untraced_mops * 100, "%",
        "untraced " + std::to_string(untraced_mops) + " vs traced " +
            std::to_string(traced_mops) + " Mops/s");

  // The layer ladder: the same per-worker op streams through each surface.
  Streams streams(kWorkers);
  for (unsigned w = 0; w < kWorkers; ++w) {
    OpGen gen(in, a.seed, w, kStreamLadder);
    streams[w].resize(s.ladder_ops);
    for (auto& op : streams[w]) op = gen.next();
  }
  const auto built = [&](auto&& b) {
    r.attempted += b.ops;
    r.failed += b.failed;
    using T = typename std::decay_t<decltype(*b.target)>;
    return std::shared_ptr<T>(std::move(b.target));
  };
  const auto fresh = [&] { return std::make_shared<Tallies>(make_tallies(s)); };
  std::vector<Rung> rungs;
  std::function<Prims()> primitives;
  if constexpr (!std::is_void_v<MapTyped>) {
    auto typed = built(build<MapTyped>(
        [&] { return std::make_unique<MapTyped>(s.scheme, s.structure); }, in,
        nullptr));
    rungs.push_back(make_rung("typed", typed, in, streams, fresh(), true));
    primitives = [typed] { return time_primitives(typed->domain()); };
    auto any = built(build<AnyMapTarget>(
        [&] { return std::make_unique<AnyMapTarget>(s.scheme, s.structure); },
        in, nullptr));
    rungs.push_back(make_rung(AnyMapTarget::kName, any, in, streams, fresh(),
                              true));
  }
  auto kv_typed = built(build<KvTyped>(
      [&] { return std::make_unique<KvTyped>(s.scheme, rung_shape); }, in,
      nullptr));
  rungs.push_back(make_rung("kv.typed", kv_typed, in, streams, fresh(), true));
  if (!primitives)
    primitives = [kv_typed] { return time_primitives(kv_typed->domain()); };
  // The AnyKv rung drives the store's only shard directly, so the store
  // rung differs from it by routing alone.  They share one structure, hence
  // one set of tallies, checked once.
  Built<KvStoreTarget> store_build = build<KvStoreTarget>(
      [&] { return std::make_unique<KvStoreTarget>(s.scheme, rung_shape); },
      in, nullptr);
  if constexpr (!std::is_void_v<MapTyped>)
    add_load_metrics(r, store_build, "the ladder's 1-shard store");
  auto store = built(std::move(store_build));
  auto shard = std::make_shared<AnyKvTarget>(store->shard(0));
  const auto store_tallies = fresh();
  rungs.push_back(
      make_rung(AnyKvTarget::kName, shard, in, streams, store_tallies, false));
  rungs.push_back(
      make_rung(KvStoreTarget::kName, store, in, streams, store_tallies, true));

  run_ladder(rungs, tracer);
  for (Rung& g : rungs) {
    r.attempted += (kLadderRounds + 1) * s.ladder_ops * kWorkers;
    const std::uint64_t t0 = now_ns();
    r.failed += g.verify();
    tracer.span(std::string("verify.") + g.label, kDriverCpu, t0, now_ns());
  }
  r.attempted += (rungs.size() - 1) * s.key_range;
  const auto rung = [&](std::string_view label) -> const Rung& {
    for (const Rung& g : rungs)
      if (label == g.label) return g;
    throw std::logic_error("no such rung");
  };
  const Rung& typed_rung =
      rung(std::is_void_v<MapTyped> ? "kv.typed" : "typed");
  const Rung& facade_rung = rung(
      std::is_void_v<MapTyped> ? AnyKvTarget::kName : AnyMapTarget::kName);
  const Rung& kv_typed_rung = rung("kv.typed");
  const Rung& kv_any_rung = rung(AnyKvTarget::kName);
  const Rung& kv_store_rung = rung(KvStoreTarget::kName);
  const Prims prims = primitives();
  r.add("smr.protect_ns", prims.protect_ns, "ns");
  r.add("smr.begin_end_ns", prims.begin_end_ns, "ns");
  r.add("smr.retire_ns", prims.retire_ns, "ns");
  r.add("core.typed_ns_per_op", median(typed_rung.ns), "ns");
  r.add("facade.dispatch_ns", rung_delta(typed_rung, facade_rung), "ns",
        std::string(facade_rung.label) + " minus the typed structure");
  r.add("kv.hash_ns", time_kv_hash(streams[0]), "ns");
  r.add("kv.facade_ns", rung_delta(kv_typed_rung, kv_any_rung), "ns",
        "AnyKv::Session minus the typed KvHashMap");
  r.add("kv.routing_ns", rung_delta(kv_any_rung, kv_store_rung), "ns",
        "KvStore::Session minus AnyKv::Session on its one shard");
  r.add("driver.gen_ns", time_gen<Main>(in, a.seed), "ns");
  for (const Rung& g : rungs)
    r.note(std::string("rung_ns.") + g.label, std::to_string(median(g.ns)));
  r.note("ladder_ops_per_rung_round", s.ladder_ops * kWorkers);
  r.note("ladder_rounds", static_cast<std::uint64_t>(kLadderRounds));
  r.note("traced_window_ops", ops);
  r.note("traced_op_spans", tracer.op_count());
  r.note("read_samples", tw.read_samples);
  r.note("update_samples", tw.update_samples);
  if (!a.trace_out.empty() &&
      !tracer.write(a.trace_out, Main::kName, s.kv)) {
    std::fprintf(stderr, "scot_perfbench: cannot write %s\n",
                 a.trace_out.c_str());
    std::exit(2);
  }
  return r;
}

template <class Main, class MapTyped, class KvTyped>
Result run(const Args& a) {
  const Inputs in = make_inputs(*a.spec, a.seed);
  return a.trace ? run_traced<Main, MapTyped, KvTyped>(a, in)
                 : run_end_to_end<Main>(a, in);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "scot_perfbench: %s\nusage: scot_perfbench --workload "
               "<list-hp|tree-hln|kv-ycsb-a> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Spec& s : kSpecs)
        if (std::strcmp(s.name, v) == 0) a.spec = &s;
      if (a.spec == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 600))
        usage("bad --seconds");
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) usage("bad --trace");
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag");
    }
  }
  if (a.spec == nullptr) usage("--workload is required");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  using scot::EbrDomain;
  using scot::HpDomain;
  using scot::HyalineDomain;
  using K = std::uint64_t;
  const Args a = parse(argc, argv);
  if (std::thread::hardware_concurrency() < kWorkers + 1) {
    std::fprintf(stderr, "scot_perfbench: needs %u CPUs\n", kWorkers + 1);
    return 2;
  }
  pin_or_die(kDriverCpu);

  Result r;
  const std::string name = a.spec->name;
  if (name == "list-hp") {
    r = run<AnyMapTarget,
            TypedMapTarget<HpDomain,
                           scot::HarrisList<K, K, HpDomain,
                                            scot::HarrisListWaitFreeTraits>>,
            TypedKvTarget<HpDomain>>(a);
  } else if (name == "tree-hln") {
    r = run<AnyMapTarget,
            TypedMapTarget<HyalineDomain,
                           scot::NatarajanMittalTree<K, K, HyalineDomain>>,
            TypedKvTarget<HyalineDomain>>(a);
  } else {
    r = run<KvStoreTarget, void, TypedKvTarget<EbrDomain>>(a);
  }
  r.note("asym_fence_path", scot::asymfence::runtime_path_name());
  r.note("nproc", std::thread::hardware_concurrency());
  r.note("build_type", PERFBENCH_BUILD_TYPE);
  r.note("workers", kWorkers);
  r.note("sample_stride", kSampleStride);
  r.note("sub_windows", kSubWindows);
  print_result(r);
  return 0;
}
