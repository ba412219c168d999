// Compile-time-gated event tracing with a Chrome trace-event exporter.
//
// Each thread that emits an event owns one fixed-capacity SPSC ring of
// TSC-stamped slots; rings are claimed from (and on thread exit returned to)
// a process-wide leaky registry, so thread churn reuses rings instead of
// growing without bound.  The exporter walks every ring and writes Chrome
// trace-event JSON (the `traceEvents` array format) that chrome://tracing
// and Perfetto load directly.
//
// Slot discipline: every slot field is a relaxed atomic plus a per-slot
// sequence word derived from the *monotonic event index* — writer marks the
// slot busy (odd), stores the fields, then publishes `2*index + 2` with
// release.  A reader accepts a slot only when the sequence it acquires
// matches the event index it expects, re-checked after reading the fields,
// so a wrapped or in-flight slot is skipped rather than torn (and the
// index-derived sequence cannot ABA across wraps).  Everything is atomic,
// so the ring is TSan-clean by construction — stats_test hammers exactly
// this wrap/snapshot race.
//
// The ring and registry types are always compiled (tests exercise them in
// every configuration); only the emission hooks — TraceSpan, trace_instant —
// and the thread-local ring claim are gated by SCOT_TRACE, so the default
// build carries no tracing code on any path.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/timing.hpp"

#ifndef SCOT_TRACE
#define SCOT_TRACE 0
#endif

namespace scot::obs {

enum class TraceKind : std::uint32_t {
  kScan = 0,   // limbo scan (duration)
  kSeal,       // Hyaline batch seal (duration)
  kBarrier,    // process-wide heavy barrier (duration)
  kJoin,       // registry join (instant)
  kLeave,      // registry leave (instant)
  kAdopt,      // orphan adoption (instant)
  kKindCount_
};

inline constexpr const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kScan: return "scan";
    case TraceKind::kSeal: return "seal";
    case TraceKind::kBarrier: return "barrier";
    case TraceKind::kJoin: return "join";
    case TraceKind::kLeave: return "leave";
    case TraceKind::kAdopt: return "adopt";
    case TraceKind::kKindCount_: break;
  }
  return "?";
}

inline constexpr bool trace_kind_instant(TraceKind k) noexcept {
  return k == TraceKind::kJoin || k == TraceKind::kLeave ||
         k == TraceKind::kAdopt;
}

// Timestamp source: raw TSC where cheap, steady-clock ns elsewhere.  The
// exporter converts to wall microseconds with a two-point calibration, so
// the unit here only needs to be monotonic and linear.
inline std::uint64_t trace_clock() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return now_ns();
#endif
}

struct TraceEvent {
  std::uint64_t start = 0;  // trace_clock units
  std::uint64_t dur = 0;
  TraceKind kind = TraceKind::kScan;
};

// Fixed-capacity single-producer ring; any thread may snapshot.
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 12;

  // Producer side (owning thread only).
  void emit(TraceKind k, std::uint64_t start, std::uint64_t dur) noexcept {
    Slot& s = slots_[head_ & (kCapacity - 1)];
    s.seq.store(2 * head_ + 1, std::memory_order_relaxed);  // busy
    s.start.store(start, std::memory_order_relaxed);
    s.dur.store(dur, std::memory_order_relaxed);
    s.kind.store(static_cast<std::uint32_t>(k), std::memory_order_relaxed);
    s.seq.store(2 * head_ + 2, std::memory_order_release);  // published
    ++head_;
    count_.store(head_, std::memory_order_release);
  }

  // Total events ever emitted (>= kCapacity once wrapped).
  std::uint64_t events_emitted() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  // Appends the currently readable events, oldest first.  Slots the writer
  // has wrapped past or is mid-write on are skipped, never torn.  Returns
  // the number of events added.
  std::size_t snapshot(std::vector<TraceEvent>& out) const {
    const std::uint64_t c = count_.load(std::memory_order_acquire);
    const std::uint64_t lo = c > kCapacity ? c - kCapacity : 0;
    std::size_t added = 0;
    for (std::uint64_t i = lo; i < c; ++i) {
      const Slot& s = slots_[i & (kCapacity - 1)];
      const std::uint64_t want = 2 * i + 2;
      if (s.seq.load(std::memory_order_acquire) != want) continue;
      TraceEvent e;
      e.start = s.start.load(std::memory_order_relaxed);
      e.dur = s.dur.load(std::memory_order_relaxed);
      e.kind =
          static_cast<TraceKind>(s.kind.load(std::memory_order_relaxed));
      if (s.seq.load(std::memory_order_acquire) != want) continue;
      out.push_back(e);
      ++added;
    }
    return added;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> start{0};
    std::atomic<std::uint64_t> dur{0};
    std::atomic<std::uint32_t> kind{0};
  };

  Slot slots_[kCapacity];
  std::uint64_t head_ = 0;  // writer-private
  std::atomic<std::uint64_t> count_{0};
};

// Process-wide ring registry: a leaky singleton (threads may still release
// rings during static destruction) holding an intrusive list of rings with
// a claimed flag for reuse across thread churn.
class TraceLog {
 public:
  static TraceLog& instance() {
    static TraceLog* g = new TraceLog;  // leaked by design
    return *g;
  }

  TraceRing* claim() {
    for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
         n = n->next) {
      bool free = false;
      if (n->claimed.compare_exchange_strong(free, true,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
        return &n->ring;
    }
    auto* n = new Node;
    n->claimed.store(true, std::memory_order_relaxed);
    n->id = static_cast<std::uint32_t>(
        ids_.fetch_add(1, std::memory_order_relaxed));
    Node* h = head_.load(std::memory_order_relaxed);
    do {
      n->next = h;
    } while (!head_.compare_exchange_weak(h, n, std::memory_order_release,
                                          std::memory_order_relaxed));
    return &n->ring;
  }

  void release(TraceRing* r) noexcept {
    for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
         n = n->next) {
      if (&n->ring == r) {
        n->claimed.store(false, std::memory_order_release);
        return;
      }
    }
  }

  // Chrome trace-event JSON ({"traceEvents": [...]}), loadable in
  // chrome://tracing and Perfetto.  Duration events use ph:"X" (ts/dur in
  // microseconds); instant events use ph:"i" with thread scope.  One export
  // "tid" per ring.  Returns false if the file cannot be opened.
  bool export_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    export_chrome_to(os);
    return os.good();
  }

  template <class Stream>
  void export_chrome_to(Stream& os) const {
    // Two-point calibration: trace_clock units -> wall microseconds.
    const std::uint64_t tsc1 = trace_clock();
    const std::uint64_t ns1 = now_ns();
    double ns_per_tick = 1.0;
    if (tsc1 > tsc0_ && ns1 > ns0_)
      ns_per_tick = static_cast<double>(ns1 - ns0_) /
                    static_cast<double>(tsc1 - tsc0_);
    os << "{\"traceEvents\":[";
    bool first = true;
    std::vector<TraceEvent> events;
    for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
         n = n->next) {
      events.clear();
      n->ring.snapshot(events);
      for (const TraceEvent& e : events) {
        const double ts_us =
            static_cast<double>(e.start - tsc0_) * ns_per_tick / 1000.0;
        const double dur_us =
            static_cast<double>(e.dur) * ns_per_tick / 1000.0;
        if (!first) os << ",";
        first = false;
        os << "{\"name\":\"" << trace_kind_name(e.kind)
           << "\",\"cat\":\"smr\",\"pid\":1,\"tid\":" << n->id;
        if (trace_kind_instant(e.kind)) {
          os << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us << "}";
        } else {
          os << ",\"ph\":\"X\",\"ts\":" << ts_us << ",\"dur\":" << dur_us
             << "}";
        }
      }
    }
    os << "]}";
  }

  std::uint64_t total_events() const noexcept {
    std::uint64_t total = 0;
    for (Node* n = head_.load(std::memory_order_acquire); n != nullptr;
         n = n->next)
      total += n->ring.events_emitted();
    return total;
  }

 private:
  TraceLog() : tsc0_(trace_clock()), ns0_(now_ns()) {}

  struct Node {
    TraceRing ring;
    std::atomic<bool> claimed{false};
    std::uint32_t id = 0;
    Node* next = nullptr;  // immutable once published
  };

  std::atomic<Node*> head_{nullptr};
  std::atomic<std::uint64_t> ids_{0};
  const std::uint64_t tsc0_;
  const std::uint64_t ns0_;
};

#if SCOT_TRACE
namespace trace_detail {
struct RingHolder {
  TraceRing* ring;
  RingHolder() : ring(TraceLog::instance().claim()) {}
  ~RingHolder() { TraceLog::instance().release(ring); }
};
}  // namespace trace_detail

inline TraceRing& tls_trace_ring() {
  thread_local trace_detail::RingHolder holder;
  return *holder.ring;
}
#endif

// Instant event (join/leave/adopt).  Compiles away when SCOT_TRACE=0.
inline void trace_instant(TraceKind k) noexcept {
#if SCOT_TRACE
  tls_trace_ring().emit(k, trace_clock(), 0);
#else
  (void)k;
#endif
}

// RAII duration event (scan/seal/barrier).  Compiles away when SCOT_TRACE=0.
class TraceSpan {
 public:
#if SCOT_TRACE
  explicit TraceSpan(TraceKind k) noexcept : kind_(k), t0_(trace_clock()) {}
  ~TraceSpan() { tls_trace_ring().emit(kind_, t0_, trace_clock() - t0_); }
#else
  explicit TraceSpan(TraceKind k) noexcept { (void)k; }
  ~TraceSpan() = default;
#endif
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
#if SCOT_TRACE
  TraceKind kind_;
  std::uint64_t t0_;
#endif
};

}  // namespace scot::obs
