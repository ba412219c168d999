// Wait-free traversal support (Figure 7 of the paper).
//
// SCOT traversals are lock-free: a traversal restarts when its dangerous-zone
// validation fails, and an adversarial scheduler can starve a single reader.
// The paper restores wait-freedom for Search with a custom
// fast-path/slow-path protocol:
//
//  * A starved searcher publishes (key, input-tag) in its per-thread record
//    (`Request_Help`) and switches to `Slow_Search`.
//  * Every Insert/Delete polls one peer record per DELAY operations
//    (`Help_Threads`, round-robin) and joins the helpee's Slow_Search.
//  * All participants run the same traversal; whoever finishes first
//    publishes the result with a single CAS on the helpee's record
//    (tag -> output).  Versioned tags make late helpers' CASes fail
//    (Lemma 5: uniqueness), and the round-robin scan bounds the wait
//    (Lemma 4), giving a wait-free Search (Theorem 7) with only standard
//    CAS — no dynamically allocated descriptors.
//
// The record encodes the paper's {Value, IsInput} pair in one 64-bit word:
// bit 0 is IsInput; for inputs the remaining bits carry the slow-path cycle
// number, for outputs they carry the boolean search result.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "common/align.hpp"
#include "common/chunked_list.hpp"

namespace scot {

enum class WfPoll : std::uint8_t {
  kContinue,   // no result yet, keep traversing
  kStale,      // the input tag moved on (helper only): abandon
  kDoneFalse,  // another participant published "not found"
  kDoneTrue,   // another participant published "found"
};

template <class Key>
class WfHelpRegistry {
  static_assert(std::is_trivially_copyable_v<Key>,
                "wait-free help records publish keys through std::atomic");

 public:
  static constexpr int kDelay = 8;  // help once per kDelay update operations

  struct alignas(kFalseSharingRange) Record {
    // --- shared fields ---
    std::atomic<std::uint64_t> help_tag{0};  // (value << 1) | is_input
    std::atomic<Key> help_key{};
    // --- owner-private fields ---
    int next_check = kDelay;
    unsigned next_tid = 0;
    std::uint64_t local_tag = 0;
  };

  // Records are indexed by SMR handle tid (= registry record index), which
  // can exceed the configured max_threads under dynamic join/leave churn.
  // The array therefore grows on demand: `max_threads` only seeds the
  // initial population.
  explicit WfHelpRegistry(unsigned max_threads) {
    const unsigned n = max_threads == 0 ? 1 : max_threads;
    records_.ensure(n - 1);
    count_.store(n, std::memory_order_release);
  }

  static constexpr std::uint64_t input_tag(std::uint64_t version) noexcept {
    return (version << 1) | 1;
  }
  static constexpr std::uint64_t output_tag(bool found) noexcept {
    return static_cast<std::uint64_t>(found) << 1;
  }
  static constexpr bool is_input(std::uint64_t tag) noexcept {
    return (tag & 1) != 0;
  }
  static constexpr bool output_value(std::uint64_t tag) noexcept {
    return (tag >> 1) != 0;
  }

  // Paper's Request_Help: publish the key, then the input tag (the order
  // matters: helpers read the tag, then the key, then re-check the tag).
  std::uint64_t request_help(unsigned tid, const Key& key) {
    Record& r = record(tid);
    r.help_key.store(key, std::memory_order_release);
    const std::uint64_t tag = input_tag(r.local_tag);
    r.help_tag.store(tag, std::memory_order_seq_cst);
    ++r.local_tag;
    return tag;
  }

  // Paper's Help_Threads: amortized round-robin poll.  Returns true and
  // fills the out-parameters when some thread needs help.
  bool poll_for_work(unsigned tid, Key* out_key, std::uint64_t* out_tag,
                     unsigned* out_tid) {
    Record& r = record(tid);
    if (--r.next_check != 0) return false;
    r.next_check = kDelay;
    // Round-robin over the records published so far.  A record pushed
    // after this load is simply picked up on a later lap; wait-freedom only
    // needs every *requester* to be polled eventually, and a requester's
    // record exists before its request_help() returns.
    const unsigned n = size();
    const unsigned cand = r.next_tid < n ? r.next_tid : 0;
    r.next_tid = (cand + 1) % n;
    if (cand == tid) return false;
    Record& c = records_[cand];
    const std::uint64_t tag = c.help_tag.load(std::memory_order_seq_cst);
    if (!is_input(tag)) return false;
    const Key key = c.help_key.load(std::memory_order_acquire);
    if (c.help_tag.load(std::memory_order_seq_cst) != tag) return false;
    *out_key = key;
    *out_tag = tag;
    *out_tid = cand;
    return true;
  }

  // Slow_Search's per-iteration completion check (Figure 7, L34-37).
  WfPoll poll_status(unsigned help_tid, std::uint64_t tag) const {
    const std::uint64_t r =
        records_[help_tid].help_tag.load(std::memory_order_acquire);
    if (r == tag) return WfPoll::kContinue;
    if (is_input(r)) return WfPoll::kStale;
    return output_value(r) ? WfPoll::kDoneTrue : WfPoll::kDoneFalse;
  }

  // Publish a result (Figure 7, L41).  At most one publication per tag
  // version can succeed.  Returns the final result for this tag.
  bool publish_result(unsigned help_tid, std::uint64_t tag, bool found) {
    Record& r = records_[help_tid];
    std::uint64_t expected = tag;
    if (r.help_tag.compare_exchange_strong(expected, output_tag(found),
                                           std::memory_order_seq_cst,
                                           std::memory_order_seq_cst)) {
      return found;
    }
    // Someone beat us; the published output is the authoritative answer.
    // (`expected` now holds it; it cannot be a newer input because only the
    // helpee advances the version, and the helpee is waiting on `tag`.)
    return output_value(expected);
  }

  // Grows the array to cover `tid` if needed (idempotent, lock-free) and
  // returns the record.  Chunks are never moved, so returned references
  // stay valid forever.
  Record& record(unsigned tid) {
    if (tid >= size()) grow_to(tid + 1);
    return records_[tid];
  }
  unsigned size() const {
    return count_.load(std::memory_order_acquire);
  }

 private:
  void grow_to(unsigned n) {
    records_.ensure(n - 1);
    unsigned cur = count_.load(std::memory_order_relaxed);
    while (cur < n && !count_.compare_exchange_weak(
                          cur, n, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }

  AtomicChunkedArray<Record> records_;
  std::atomic<unsigned> count_{0};
};

}  // namespace scot
