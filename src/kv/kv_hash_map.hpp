// KvHashMap: a string-keyed, lock-free, growable hash map — the shard type
// behind scot::KvStore (DESIGN.md §10).
//
// The whole map is one sorted list: a split-ordered list (Shalev & Shavit,
// "Split-Ordered Lists: Lock-Free Extensible Hash Tables", JACM 2006) run by
// the paper's SCOT Harris traversal — the same scot_find() (core/
// scot_find.hpp) that HarrisList uses, with its dangerous-zone validation
// and §3.2.1 recovery.  The map supplies only where a search starts and how
// a node compares against the target.
//
// Order.  Every node carries a split-order key: the bit-reversed hash with
// the low bit set for data nodes, the bit-reversed bucket index (low bit
// clear) for bucket sentinels.  The list is sorted by (split-order key, key
// bytes), so for every bucket count 2^k at once, bucket b's sentinel
// directly precedes the data nodes whose low k hash bits equal b.  Nodes
// never move: doubling the bucket count is one CAS on count_, and a new
// bucket's sentinel is linked lazily, after its parent's sentinel (b with
// its top bit cleared), the first time an operation hashes to it.
//
// Directory.  Bucket sentinels live inline in a segment table — segment s
// holds buckets [2^(s-1), 2^s), segment 0 holds bucket 0 — allocated on
// first use and immortal for the map's lifetime.  Segments of 1 MB and more
// sit on whole 2 MB huge pages (common/huge_pages.hpp).  Traversals walk
// past other buckets' sentinels, so those land in protection slots like any
// node: each sentinel sits right behind a 16-byte AllocHeader with birth
// era 0, which is what the era schemes' protect() reads.  Sentinels are
// never marked, unlinked or retired.  One thread claims an unlinked bucket
// by CAS and links its sentinel; until that lands, operations on the bucket
// start from the nearest linked ancestor's sentinel, which precedes the
// same keys, so nobody waits.
//
// Values.  A data node holds its key inline after the struct and its value
// in a separate KvBlob cell reached through `val`; both come from the
// domain's NodePool via alloc_extra(), so values up to ~4KB recycle through
// the same per-thread shards as list nodes.  Upsert is a CAS swap of `val`
// (the replaced blob retires through SMR).  Erase linearizes at the
// exchange of `val` to marked-null, which also claims custody of the blob;
// only then is `next` marked, so the SCOT chain removal retires bare nodes,
// never a blob.  A put that finds a marked-null value helps mark the node
// and retries.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/align.hpp"
#include "common/huge_pages.hpp"
#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
#include "core/scot_find.hpp"
#include "smr/handle_registry.hpp"
#include "smr/smr.hpp"

namespace scot {

// FNV-1a over the key bytes with a SplitMix64 finalizer: the low bits pick
// the bucket and the high bits pick the KvStore shard, so both need full
// avalanche.
inline std::uint64_t kv_hash(std::string_view key) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

// Value cell: length + inline bytes.  Immutable after publication (updates
// swap the whole blob), so readers need no per-byte synchronisation beyond
// the publishing CAS.
struct KvBlob : ReclaimNode {
  std::uint32_t vlen;

  explicit KvBlob(std::uint32_t n) noexcept : vlen(n) {}

  char* bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  std::string_view view() const noexcept {
    return {reinterpret_cast<const char*>(this + 1), vlen};
  }
};

// List node.  A data node has an odd split-order key, its key bytes inline
// after the struct and its value behind `val`; a bucket sentinel has an
// even split-order key, no key bytes and a null `val`.  `next` carries
// kMarkBit for Harris' logical deletion.  `next` comes first so that it and
// `so_key`, the two words every traversal step reads, share a cache line.
struct KvNode : ReclaimNode {
  using BlobMP = marked_ptr<KvBlob>;

  StableAtomic<marked_ptr<KvNode>> next;
  std::uint64_t so_key;
  std::uint32_t klen;
  StableAtomic<BlobMP> val;

  KvNode(std::uint64_t so, std::uint32_t kl, KvBlob* blob) noexcept
      : so_key(so), klen(kl) {
    next.store(marked_ptr<KvNode>{}, std::memory_order_relaxed);
    val.store(BlobMP(blob), std::memory_order_relaxed);
  }

  char* key_bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  std::string_view key() const noexcept {
    return {reinterpret_cast<const char*>(this + 1), klen};
  }
};
// A node with a 16-byte key takes a 96-byte pool cell.
static_assert(NodePool::cell_bytes(sizeof(KvNode) + 16) == 96);

inline std::uint64_t reverse_bits(std::uint64_t x) noexcept {
  x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
  x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
  x = ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((x & 0x0f0f0f0f0f0f0f0fULL) << 4);
  return __builtin_bswap64(x);
}

// Split-order keys: data nodes odd, bucket sentinels even.
inline std::uint64_t so_data_key(std::uint64_t hash) noexcept {
  return reverse_bits(hash) | 1;
}
inline std::uint64_t so_bucket_key(std::size_t bucket) noexcept {
  return reverse_bits(bucket);
}

enum class KvPut {
  kInserted,   // key was absent; a fresh node was linked
  kUpdated,    // key was present; the value blob was swapped
  kRejected,   // key or value exceeds the pooled-cell ceiling
};

template <SmrDomain Smr>
class KvHashMap {
 public:
  using Handle = typename Smr::Handle;
  using Guard = TraversalGuard<Handle>;
  using MP = marked_ptr<KvNode>;
  using BlobMP = marked_ptr<KvBlob>;
  using Link = StableAtomic<MP>;

  // The SCOT traversal's four roles, then the value blob.  Fits the default
  // slots_per_thread = 8.
  struct Hp : ScotHp<Handle, KvNode> {
    ProtectionSlot<Handle, KvBlob> blob;
    explicit Hp(Guard& g)
        : ScotHp<Handle, KvNode>(g), blob(g.template slot<KvBlob>()) {}
  };
  static constexpr unsigned kSlotsRequired = Hp::kSlots + 1;

  struct Options {
    std::size_t initial_buckets = 16;            // rounded up to a power of 2
    std::size_t max_buckets = std::size_t{1} << 20;
    unsigned max_load_factor = 4;  // double when size > factor * buckets
  };

  static constexpr std::size_t max_key_bytes() {
    return NodePool::max_node_bytes() - sizeof(KvNode);
  }
  static constexpr std::size_t max_value_bytes() {
    return NodePool::max_node_bytes() - sizeof(KvBlob);
  }

  explicit KvHashMap(Smr& smr, Options opt = {}) : smr_(smr) {
    const std::size_t initial =
        std::bit_ceil(std::max<std::size_t>(opt.initial_buckets, 1));
    max_buckets_ = std::max(
        std::bit_ceil(std::max<std::size_t>(opt.max_buckets, 1)), initial);
    max_load_factor_ = std::max(1u, opt.max_load_factor);
    count_.store(initial, std::memory_order_relaxed);
    assert(header_of(&tail_.sentinel) == &tail_.hdr);
    tail_.sentinel.so_key = ~std::uint64_t{0};
    Bucket& b0 = bucket(0);
    b0.sentinel.next.store(MP(&tail_.sentinel), std::memory_order_relaxed);
    b0.state.store(kLinked, std::memory_order_release);
  }

  ~KvHashMap() {
    // Single-threaded teardown: data nodes still in the list own their
    // cells and live blobs (a marked node's blob went to its eraser).
    // Sentinels belong to the segments.
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    KvNode* n = bucket(0).sentinel.next.load(std::memory_order_relaxed).ptr();
    while (n != &tail_.sentinel) {
      KvNode* next = n->next.load(std::memory_order_relaxed).ptr();
      if (is_data(n)) {
        KvBlob* blob = n->val.load(std::memory_order_relaxed).ptr();
        if (blob != nullptr) h.dealloc_unpublished(blob);
        h.dealloc_unpublished(n);
      }
      n = next;
    }
    for (unsigned s = 0; s < std::size(segments_); ++s) {
      if (Bucket* seg = segments_[s].load(std::memory_order_relaxed))
        delete_segment(seg, segment_size(s));
    }
  }

  KvHashMap(const KvHashMap&) = delete;
  KvHashMap& operator=(const KvHashMap&) = delete;

  KvPut put(Handle& h, std::string_view key, std::string_view value) {
    if (key.size() > max_key_bytes() || value.size() > max_value_bytes())
      return KvPut::kRejected;
    const std::uint64_t hash = kv_hash(key);
    const std::uint64_t so = so_data_key(hash);
    const auto cmp = [&](const KvNode* n) { return compare(n, so, key); };
    Guard g(h);
    Hp hp(g);
    Link& start = start_link(g, hp, hash);
    KvBlob* nb = make_blob(h, value);
    KvNode* n = nullptr;
    for (;;) {
      Position pos{};
      scot_find(g, hp, start, cmp, /*search_only=*/false, pos);
      if (pos.found) {
        const BlobMP bv = pos.curr->val.load(std::memory_order_seq_cst);
        if (bv.ptr() == nullptr) {
          mark(pos.curr);  // erased but not yet marked: finish, re-find
          continue;
        }
        BlobMP expected = bv;
        if (pos.curr->val.compare_exchange_strong(expected, BlobMP(nb),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_relaxed)) {
          h.retire(bv.ptr());  // the replaced blob is ours to retire
          if (n != nullptr) h.dealloc_unpublished(n);
          return KvPut::kUpdated;
        }
        continue;  // lost the val race (update/erase); re-find
      }
      if (n == nullptr) n = make_node(h, so, key, nb);
      n->next.store(MP(pos.curr), std::memory_order_relaxed);
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, MP(n),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        size_.fetch_add(1, std::memory_order_relaxed);
        maybe_grow();
        return KvPut::kInserted;
      }
    }
  }

  bool erase(Handle& h, std::string_view key) {
    const std::uint64_t hash = kv_hash(key);
    const std::uint64_t so = so_data_key(hash);
    const auto cmp = [&](const KvNode* n) { return compare(n, so, key); };
    Guard g(h);
    Hp hp(g);
    Link& start = start_link(g, hp, hash);
    for (;;) {
      Position pos{};
      scot_find(g, hp, start, cmp, /*search_only=*/false, pos);
      if (!pos.found) return false;
      const BlobMP bv = pos.curr->val.load(std::memory_order_seq_cst);
      if (bv.ptr() == nullptr) return false;  // lost to a concurrent erase
      // The exchange to marked-null is the linearization point of the delete
      // (readers treat a null value as absent) and claims blob custody.
      BlobMP expected = bv;
      if (!pos.curr->val.compare_exchange_strong(
              expected, BlobMP(nullptr, kMarkBit), std::memory_order_seq_cst,
              std::memory_order_relaxed)) {
        continue;  // val changed under us; re-find
      }
      // One unlink attempt (Figure 3, L22); the unlink winner — here or a
      // later traversal's chain removal — retires the node.
      const MP next = mark(pos.curr);
      MP link(pos.curr);
      if (pos.prev->compare_exchange_strong(link, next.clean(),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        h.retire(pos.curr);
      }
      h.retire(bv.ptr());
      size_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }

  bool get(Handle& h, std::string_view key, std::string* out) {
    const std::uint64_t hash = kv_hash(key);
    const std::uint64_t so = so_data_key(hash);
    const auto cmp = [&](const KvNode* n) { return compare(n, so, key); };
    Guard g(h);
    Hp hp(g);
    Link& start = start_link(g, hp, hash);
    for (;;) {
      Position pos{};
      scot_find(g, hp, start, cmp, /*search_only=*/true, pos);
      if (!pos.found) return false;
      // protect() republishes until the val word is stable, and every blob
      // retirement is preceded by a CAS that moves val off the blob (update
      // or erase) — the publish-then-validate argument, applied to the
      // value link.
      const Protected<KvBlob> pb = hp.blob.protect(pos.curr->val);
      if (!g.valid()) {
        h.count_restart();
        continue;
      }
      if (pb.get() == nullptr) return false;  // erased
      if (out != nullptr) out->assign(pb->view());
      return true;
    }
  }

  std::optional<std::string> get(Handle& h, std::string_view key) {
    std::string out;
    if (!get(h, key, &out)) return std::nullopt;
    return out;
  }

  bool contains(Handle& h, std::string_view key) {
    const std::uint64_t hash = kv_hash(key);
    const std::uint64_t so = so_data_key(hash);
    const auto cmp = [&](const KvNode* n) { return compare(n, so, key); };
    Guard g(h);
    Hp hp(g);
    Position pos{};
    scot_find(g, hp, start_link(g, hp, hash), cmp, /*search_only=*/true, pos);
    return pos.found &&
           pos.curr->val.load(std::memory_order_seq_cst).ptr() != nullptr;
  }

  // Quiescent observer (tests / teardown / reporting): live pairs in the
  // list.
  std::size_t size_unsafe() {
    std::size_t n = 0;
    for (const KvNode* c =
             bucket(0).sentinel.next.load(std::memory_order_acquire).ptr();
         c != &tail_.sentinel;
         c = c->next.load(std::memory_order_acquire).ptr()) {
      if (is_data(c) && !c->next.load(std::memory_order_acquire).marked() &&
          c->val.load(std::memory_order_acquire).ptr() != nullptr)
        ++n;
    }
    return n;
  }

  std::size_t bucket_count() const {
    return count_.load(std::memory_order_acquire);
  }
  // Bucket sentinels linked since construction (bucket 0's, linked by the
  // constructor, not counted).
  std::uint64_t migrated_buckets() const {
    return linked_.load(std::memory_order_relaxed);
  }

 private:
  using Position = ScotPosition<KvNode>;

  enum : std::uint32_t { kUnlinked, kClaimed, kLinked };

  // One directory slot: an immortal sentinel behind its allocation header.
  struct alignas(32) Bucket {
    AllocHeader hdr{};  // birth era 0: protect() reads it like a pool cell's
    KvNode sentinel{0, 0, nullptr};
    std::atomic<std::uint32_t> state{kUnlinked};
  };

  static bool is_data(const KvNode* n) noexcept { return (n->so_key & 1) != 0; }

  // Node vs. target (split-order key, key bytes), three-way.  Only the tail
  // shares the largest data key, and it sorts after every target.
  int compare(const KvNode* n, std::uint64_t so, std::string_view key) const {
    if (n->so_key != so) return n->so_key < so ? -1 : 1;
    if (n == &tail_.sentinel) return 1;
    const int c = n->key().compare(key);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }

  // Marks n's next link (logical deletion); returns the marked word.
  static MP mark(KvNode* n) {
    MP next = n->next.load(std::memory_order_seq_cst);
    while (!next.marked() &&
           !n->next.compare_exchange_strong(next, next.with_mark(),
                                            std::memory_order_seq_cst,
                                            std::memory_order_seq_cst)) {
    }
    return next.with_mark();
  }

  // --- allocation helpers -------------------------------------------------
  KvBlob* make_blob(Handle& h, std::string_view value) {
    KvBlob* b = h.template alloc_extra<KvBlob>(
        value.size(), static_cast<std::uint32_t>(value.size()));
    if (!value.empty()) std::memcpy(b->bytes(), value.data(), value.size());
    return b;
  }
  KvNode* make_node(Handle& h, std::uint64_t so, std::string_view key,
                    KvBlob* blob) {
    KvNode* n = h.template alloc_extra<KvNode>(
        key.size(), so, static_cast<std::uint32_t>(key.size()), blob);
    if (!key.empty()) std::memcpy(n->key_bytes(), key.data(), key.size());
    return n;
  }

  // --- bucket directory ---------------------------------------------------
  Bucket& bucket(std::size_t b) {
    const unsigned s = static_cast<unsigned>(std::bit_width(b));
    Bucket* seg = segments_[s].load(std::memory_order_acquire);
    if (seg == nullptr) seg = install_segment(s);
    return seg[b - (std::size_t{1} << s >> 1)];
  }

  // Allocates segment s with its sentinels initialised and installs it by
  // CAS; the loser frees its copy.
  Bucket* install_segment(unsigned s) {
    const std::size_t first = std::size_t{1} << s >> 1;
    const std::size_t n = segment_size(s);
    Bucket* fresh = new_segment(n);
    for (std::size_t i = 0; i < n; ++i)
      fresh[i].sentinel.so_key = so_bucket_key(first + i);
    Bucket* expected = nullptr;
    if (segments_[s].compare_exchange_strong(expected, fresh,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire))
      return fresh;
    delete_segment(fresh, n);
    return expected;
  }

  // Buckets in segment s.
  static std::size_t segment_size(unsigned s) {
    return std::max<std::size_t>(std::size_t{1} << s >> 1, 1);
  }

  // Segments of at least kHugeSegmentBytes take whole huge pages: a bucket
  // visit then rarely pays a page walk, and the rounding costs less than
  // one huge page per segment.
  static constexpr std::size_t kHugeSegmentBytes = std::size_t{1} << 20;

  static Bucket* new_segment(std::size_t n) {
    const std::size_t bytes = n * sizeof(Bucket);
    if (bytes < kHugeSegmentBytes) return new Bucket[n];
    auto* seg =
        static_cast<Bucket*>(huge_page_alloc(huge_page_round_up(bytes)));
    std::uninitialized_default_construct_n(seg, n);
    return seg;
  }

  static void delete_segment(Bucket* seg, std::size_t n) {
    const std::size_t bytes = n * sizeof(Bucket);
    if (bytes < kHugeSegmentBytes) {
      delete[] seg;
      return;
    }
    std::destroy_n(seg, n);
    huge_page_free(seg, huge_page_round_up(bytes));
  }

  // The link a search for `hash` starts from: its bucket's sentinel once
  // linked, else the nearest linked ancestor's (see link_bucket).
  Link& start_link(Guard& g, Hp& hp, std::uint64_t hash) {
    // count_ publishes nothing: with a stale count the search starts from
    // an ancestor's sentinel, which precedes the same keys.
    const std::size_t mask = count_.load(std::memory_order_relaxed) - 1;
    const std::size_t b = static_cast<std::size_t>(hash) & mask;
    Bucket& bk = bucket(b);
    if (bk.state.load(std::memory_order_acquire) == kLinked)
      return bk.sentinel.next;
    return link_bucket(g, hp, b, bk);
  }

  // Slow path of start_link for an unlinked bucket b != 0: claims it and
  // links its sentinel after its parent's (b with its top bit cleared,
  // linked first if needed).  When another thread holds the claim, returns
  // the parent's start link instead of waiting.
  Link& link_bucket(Guard& g, Hp& hp, std::size_t b, Bucket& bk) {
    const std::size_t p = b & ~std::bit_floor(b);
    Bucket& pk = bucket(p);
    Link& parent = pk.state.load(std::memory_order_acquire) == kLinked
                       ? pk.sentinel.next
                       : link_bucket(g, hp, p, pk);
    std::uint32_t expected = kUnlinked;
    if (!bk.state.compare_exchange_strong(expected, kClaimed,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed))
      return parent;
    KvNode* s = &bk.sentinel;
    const auto cmp = [&](const KvNode* n) { return compare(n, s->so_key, {}); };
    for (;;) {
      Position pos{};
      scot_find(g, hp, parent, cmp, /*search_only=*/false, pos);
      assert(!pos.found);
      s->next.store(MP(pos.curr), std::memory_order_relaxed);
      MP link(pos.curr);
      if (pos.prev->compare_exchange_strong(link, MP(s),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed))
        break;
    }
    bk.state.store(kLinked, std::memory_order_release);
    linked_.fetch_add(1, std::memory_order_relaxed);
    return s->next;
  }

  // Doubles the bucket count once the load factor is exceeded.  Nothing
  // moves: the new buckets' sentinels are linked on first use.
  void maybe_grow() {
    std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= max_buckets_) return;
    const std::int64_t size = size_.load(std::memory_order_relaxed);
    if (size <= static_cast<std::int64_t>(max_load_factor_ * n)) return;
    count_.compare_exchange_strong(n, 2 * n, std::memory_order_relaxed);
  }

  std::atomic<Bucket*> segments_[64] = {};
  Bucket tail_;  // split-order key ~0, sorts after every target
  std::size_t max_buckets_ = std::size_t{1} << 20;
  unsigned max_load_factor_ = 4;
  alignas(kCacheLine) std::atomic<std::size_t> count_{0};
  alignas(kCacheLine) std::atomic<std::int64_t> size_{0};
  std::atomic<std::uint64_t> linked_{0};
  Smr& smr_;
};

}  // namespace scot
