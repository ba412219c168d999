// KvHashMap: a string-keyed, lock-free hash map with incremental resize —
// the shard type behind scot::KvStore (DESIGN.md §10).
//
// Layout.  One AtomicChunkedArray<BucketSlot> holds every bucket directory
// generation ever published: generation g occupies the flat index range
// [N0*(2^g - 1), N0*(2^(g+1) - 1)) where N0 is the initial bucket count, so
// doubling never moves or frees a live BucketSlot.  Chunks are CAS-installed
// and immortal for the map's lifetime, which is why readers can never
// observe a torn directory: a published generation index always dereferences
// to fully constructed slots (the install CAS releases the value-initialised
// chunk; operator[] acquires it).
//
// Chains are Michael-style sorted lists (by hash, then key bytes) of pooled
// KvNode cells with the key inline after the struct.  The value lives in a
// separate KvBlob cell reached through the node's `val` link; upsert is a
// CAS swap of that link (replaced blobs retire through SMR), and erase
// linearizes by exchanging `val` to tagged-null before the usual
// mark-then-unlink of the node.  Both cells come from the domain's NodePool
// via alloc_extra(), so values up to ~4KB recycle through the same
// per-thread shards as list nodes.
//
// Incremental resize (freeze -> copy -> DONE -> seal -> sever -> retire):
//   * One doubling round in flight at a time (`pending_` counts old-gen
//     buckets not yet DONE; the winner of pending_ 0->N re-validates gen_
//     under the claim — a claimant that slept across complete rounds
//     between its gen_ load and the CAS win must not publish over a later
//     generation, so a stale claim is simply undone — then extends the
//     directory, seeds every child head with kPendBit, and publishes
//     gen_+1.  gen_ only ever moves g -> g+1 by CAS, so it is monotone).
//   * Every operation routes by the current generation; while a round is in
//     flight it first checks the *parent* bucket (same low index bits, one
//     generation down) and, if that parent is not DONE, migrates it to
//     completion before operating.  Writers that find pending_ != 0 also
//     help migrate a couple of buckets past a rotating cursor, so rounds
//     drain under write load instead of relying on lucky access patterns.
//   * freeze tags (kTagBit) the bucket head and every next/val link in
//     chain order.  A tagged link fails every mutation CAS (insert, mark,
//     unlink, upsert, erase all expect untagged words), so the chain is
//     immutable once the freezer's walk completes; any op that runs into a
//     tag restarts from the generation load.
//   * copy walks the frozen chain under hazard protection and inserts a
//     fresh copy of every live pair (val not tagged-null) into the child
//     buckets of the next generation.  Normal operations never touch a
//     child chain before the parent is DONE, so a half-copied child is
//     never observable.  While the round is in flight EVERY word of a
//     child chain — the seeded head, each node's next, the terminal null —
//     carries kPendBit; insert_copy installs pend-tagged words and bails
//     out the moment it reads a word without the bit.
//   * The DONE CAS winner first SEALS both child chains (clears kPendBit
//     from every link; clients that race the seal help by clearing any
//     pend word they meet), then severs every parent link (head, next,
//     val) to tagged-null, and only then retires the old nodes and blobs
//     through the shard's SMR domain — the unlink-before-retire order that
//     hazard-style validation needs.  Readers still standing on the frozen
//     chain hold hazard/era protection, so reclamation waits for them.  A
//     frozen-live value is returned only while the bucket is not yet DONE
//     (checked after the protect; past that point the child chain may hold
//     newer values), and a tagged-null val is reported absent only when the
//     node's next link is untagged — sever tags it, an erase at most marks
//     it — because a severed pair may be live in the child.  Both checks
//     re-route the op through the current generation otherwise.  The
//     pending_ decrement happens after the seal, so a later round's freeze
//     never observes a pend word.
//   * A helper can sleep at any point and wake after its round — or several
//     later rounds — completed, so every helper loop has an escape hatch:
//     the freeze and copy walks are hazard-protected and re-check the
//     bucket's DONE flag, and insert_copy requires kPendBit on every word
//     it traverses and on its commit CAS's expected value.  That closes
//     the insert-then-delete ABA: post-round client mutations only ever
//     install pend-free words (the seal strips the bit, erase/unlink
//     install clean() words, inserts install clean words), so a stale
//     helper's pend-expected commit can only succeed while the round is
//     still in flight — it can neither spin against a severed chain nor
//     resurrect a key that a live eraser removed after the round
//     (DESIGN.md §10 gives the full argument).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/align.hpp"
#include "common/chunked_list.hpp"
#include "common/stable_atomic.hpp"
#include "core/marked_ptr.hpp"
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

// Chain node: immutable identity (hash + inline key) plus two mutable
// links.  `next` carries kMarkBit for Michael's logical deletion; both
// links carry kTagBit while the chain is frozen for migration and are
// stored as tagged-null once the bucket has been severed.
struct KvNode : ReclaimNode {
  using BlobMP = marked_ptr<KvBlob>;

  std::uint64_t hash;
  std::uint32_t klen;
  StableAtomic<marked_ptr<KvNode>> next;
  StableAtomic<BlobMP> val;

  KvNode(std::uint64_t h, std::uint32_t kl, KvBlob* blob) noexcept
      : hash(h), klen(kl) {
    next.store(marked_ptr<KvNode>{}, std::memory_order_relaxed);
    val.store(BlobMP(blob), std::memory_order_relaxed);
  }

  char* key_bytes() noexcept { return reinterpret_cast<char*>(this + 1); }
  std::string_view key() const noexcept {
    return {reinterpret_cast<const char*>(this + 1), klen};
  }
};

// Total order of chain positions: by hash, then key bytes.
inline int kv_compare(std::uint64_t hash, std::string_view key,
                      const KvNode* n) noexcept {
  if (hash != n->hash) return hash < n->hash ? -1 : 1;
  const int c = key.compare(n->key());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
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
  using NodeSlot = ProtectionSlot<Handle, KvNode>;
  using BlobSlot = ProtectionSlot<Handle, KvBlob>;

  // find (next/curr/prev) + blob, then the child-chain roles used only by
  // migration (cnext/ccurr/cprev).  Fits the default slots_per_thread = 8.
  static constexpr unsigned kSlotsRequired = 7;

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
    initial_ = std::bit_ceil(std::max<std::size_t>(opt.initial_buckets, 1));
    max_buckets_ = std::max(std::bit_ceil(
                                std::max<std::size_t>(opt.max_buckets, 1)),
                            initial_);
    max_load_factor_ = std::max(1u, opt.max_load_factor);
    buckets_.ensure(gen_base(0) + gen_count(0) - 1);
  }

  ~KvHashMap() {
    // Single-threaded teardown.  Walk every generation ever published:
    // severed buckets hold tagged-null heads and are skipped (their copies
    // live one generation up; their old cells were retired through SMR);
    // live or frozen-but-not-copied chains still own their cells and any
    // attached blobs.
    auto sh = scoped_handle(smr_);
    auto& h = sh.get();
    const std::uint32_t gmax = gen_.load(std::memory_order_relaxed);
    for (std::uint32_t g = 0; g <= gmax; ++g) {
      for (std::size_t j = 0; j < gen_count(g); ++j) {
        KvNode* n = slot_at(g, j).head.load(std::memory_order_relaxed).ptr();
        while (n != nullptr) {
          KvNode* next = n->next.load(std::memory_order_relaxed).ptr();
          KvBlob* blob = n->val.load(std::memory_order_relaxed).ptr();
          if (blob != nullptr) h.dealloc_unpublished(blob);
          h.dealloc_unpublished(n);
          n = next;
        }
      }
    }
  }

  KvHashMap(const KvHashMap&) = delete;
  KvHashMap& operator=(const KvHashMap&) = delete;

  KvPut put(Handle& h, std::string_view key, std::string_view value) {
    if (key.size() > max_key_bytes() || value.size() > max_value_bytes())
      return KvPut::kRejected;
    const std::uint64_t hash = kv_hash(key);
    for (;;) {
      const std::uint32_t g = route(h, hash);
      const PutOutcome r =
          try_put(h, slot_at(g, bucket_index(g, hash)), hash, key, value);
      if (r == PutOutcome::kMigrate) continue;
      if (r == PutOutcome::kUpdated) return KvPut::kUpdated;
      size_.fetch_add(1, std::memory_order_relaxed);
      maybe_resize(h);
      return KvPut::kInserted;
    }
  }

  bool erase(Handle& h, std::string_view key) {
    const std::uint64_t hash = kv_hash(key);
    for (;;) {
      const std::uint32_t g = route(h, hash);
      const OpOutcome r =
          try_erase(h, slot_at(g, bucket_index(g, hash)), hash, key);
      if (r == OpOutcome::kMigrate) continue;
      if (r == OpOutcome::kTrue) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      return false;
    }
  }

  bool get(Handle& h, std::string_view key, std::string* out) {
    const std::uint64_t hash = kv_hash(key);
    for (;;) {
      const std::uint32_t g = route(h, hash);
      const OpOutcome r =
          try_get(h, slot_at(g, bucket_index(g, hash)), hash, key, out);
      if (r != OpOutcome::kMigrate) return r == OpOutcome::kTrue;
    }
  }

  std::optional<std::string> get(Handle& h, std::string_view key) {
    std::string out;
    if (!get(h, key, &out)) return std::nullopt;
    return out;
  }

  bool contains(Handle& h, std::string_view key) {
    const std::uint64_t hash = kv_hash(key);
    for (;;) {
      const std::uint32_t g = route(h, hash);
      const OpOutcome r =
          try_contains(h, slot_at(g, bucket_index(g, hash)), hash, key);
      if (r != OpOutcome::kMigrate) return r == OpOutcome::kTrue;
    }
  }

  // Runs every bucket of an in-flight round to completion.  Quiesces the
  // resize state (pending_migration() == 0 afterwards when no concurrent
  // writer starts a new round).
  void drain_migrations(Handle& h) {
    for (;;) {
      const std::uint64_t p = pending_.load(std::memory_order_acquire);
      if (p == 0) return;
      const std::uint32_t g = gen_.load(std::memory_order_acquire);
      // pending_ == gen_count(g) with gen_ still g is exactly the
      // claimed-but-unpublished window of round g -> g+1 (a published
      // round's count starts at gen_count(g-1) and only shrinks; the
      // re-read pins g to the value gen_ had when pending_ was sampled).
      // There is nothing to migrate yet: help finish the publish if the
      // winner has seeded the child directory, otherwise yield to it
      // instead of hot-spinning over already-DONE buckets.
      if (p == gen_count(g) && gen_.load(std::memory_order_acquire) == g) {
        if (!try_help_publish(g)) std::this_thread::yield();
        continue;
      }
      if (g == 0) return;
      for (std::size_t j = 0; j < gen_count(g - 1); ++j) {
        if (slot_at(g - 1, j).done.load(std::memory_order_acquire) == 0)
          migrate_bucket(h, g - 1, j);
      }
    }
  }

  // Quiescent observers (tests / teardown / reporting).
  std::size_t size_unsafe() {
    auto sh = scoped_handle(smr_);
    drain_migrations(sh.get());
    const std::uint32_t g = gen_.load(std::memory_order_acquire);
    std::size_t n = 0;
    for (std::size_t j = 0; j < gen_count(g); ++j) {
      const KvNode* c =
          slot_at(g, j).head.load(std::memory_order_acquire).ptr();
      while (c != nullptr) {
        if (c->val.load(std::memory_order_acquire).ptr() != nullptr) ++n;
        c = c->next.load(std::memory_order_acquire).ptr();
      }
    }
    return n;
  }

  std::size_t size_approx() const {
    const std::int64_t s = size_.load(std::memory_order_relaxed);
    return s > 0 ? static_cast<std::size_t>(s) : 0;
  }
  std::size_t bucket_count() const {
    return gen_count(gen_.load(std::memory_order_acquire));
  }
  std::uint32_t generation() const {
    return gen_.load(std::memory_order_acquire);
  }
  std::uint64_t pending_migration() const {
    return pending_.load(std::memory_order_acquire);
  }
  std::uint64_t migrated_buckets() const {
    return migrated_.load(std::memory_order_relaxed);
  }

 private:
  struct BucketSlot {
    // Explicit initializers, not value-init: StableAtomic's default
    // constructor deliberately writes nothing (pool-recycled links must not
    // clobber concurrent stores), so `new BucketSlot[n]()` alone would
    // leave garbage heads.  The chunk-install CAS releases these stores.
    Link head{MP{}};
    // 0 while this bucket's chain is authoritative for its generation;
    // 1 once its content has been fully copied one generation up.
    std::atomic<std::uint32_t> done{0};
  };

  enum class FindStatus { kFound, kAbsent, kMigrate };
  enum class PutOutcome { kInserted, kUpdated, kMigrate };
  enum class OpOutcome { kTrue, kFalse, kMigrate };

  struct Position {
    Link* prev;
    KvNode* curr;
    MP next;
    FindStatus status;
  };

  // Slot roles in ascending-dup order; blob sits above the list roles so
  // get() can dup nothing and protect the value last.
  struct Hp {
    NodeSlot next, curr, prev;
    BlobSlot blob;
    explicit Hp(Guard& g)
        : next(g.template slot<KvNode>()),
          curr(g.template slot<KvNode>()),
          prev(g.template slot<KvNode>()),
          blob(g.template slot<KvBlob>()) {}
  };
  // Child-chain roles for the migration copy pass (indices 4..6).
  struct ChildHp {
    NodeSlot next, curr, prev;
    explicit ChildHp(Guard& g)
        : next(g.template slot<KvNode>()),
          curr(g.template slot<KvNode>()),
          prev(g.template slot<KvNode>()) {}
  };
  // Freeze-walk roles (the freezer opens its own guard; indices 0..1).
  struct FreezeHp {
    NodeSlot next, curr;
    explicit FreezeHp(Guard& g)
        : next(g.template slot<KvNode>()),
          curr(g.template slot<KvNode>()) {}
  };

  // --- directory geometry -------------------------------------------------
  std::size_t gen_count(std::uint32_t g) const { return initial_ << g; }
  std::size_t gen_base(std::uint32_t g) const {
    return initial_ * ((std::size_t{1} << g) - 1);
  }
  BucketSlot& slot_at(std::uint32_t g, std::size_t j) {
    return buckets_[gen_base(g) + j];
  }
  std::size_t bucket_index(std::uint32_t g, std::uint64_t hash) const {
    return static_cast<std::size_t>(hash) & (gen_count(g) - 1);
  }

  // Loads the current generation and, while a round is in flight, brings
  // this key's parent bucket to DONE so the caller may operate on the
  // current-generation chain.  The pending_ == 0 fast path costs one
  // acquire load per operation.
  std::uint32_t route(Handle& h, std::uint64_t hash) {
    const std::uint32_t g = gen_.load(std::memory_order_acquire);
    if (g == 0 || pending_.load(std::memory_order_acquire) == 0) return g;
    const std::size_t p =
        static_cast<std::size_t>(hash) & (gen_count(g - 1) - 1);
    if (slot_at(g - 1, p).done.load(std::memory_order_acquire) == 0)
      migrate_bucket(h, g - 1, p);
    return g;
  }

  void restart(Guard& g) {
    g.handle().count_restart();
    g.revalidate();
  }

  // --- allocation helpers -------------------------------------------------
  KvBlob* make_blob(Handle& h, std::string_view value) {
    KvBlob* b = h.template alloc_extra<KvBlob>(
        value.size(), static_cast<std::uint32_t>(value.size()));
    if (!value.empty()) std::memcpy(b->bytes(), value.data(), value.size());
    return b;
  }
  KvNode* make_node(Handle& h, std::uint64_t hash, std::string_view key,
                    KvBlob* blob) {
    KvNode* n = h.template alloc_extra<KvNode>(
        key.size(), hash, static_cast<std::uint32_t>(key.size()), blob);
    if (!key.empty()) std::memcpy(n->key_bytes(), key.data(), key.size());
    return n;
  }

  // --- chain traversal ----------------------------------------------------
  // Michael's Find over one bucket chain, with one extra exit: any tagged
  // word means the chain is frozen (or severed) for migration, and the
  // operation must re-route through the current generation.
  Position find(Guard& g, Hp& hp, Link& head, std::uint64_t hash,
                std::string_view key) {
    Handle& h = g.handle();
    for (;;) {
      Link* prev = &head;
      MP curr_m = hp.curr.protect(head);
      if (!g.valid()) {
        restart(g);
        continue;
      }
      if (curr_m.tagged()) return {nullptr, nullptr, MP{}, FindStatus::kMigrate};
      if (curr_m.pended()) {
        // This bucket just became authoritative and its DONE winner is
        // still sealing: help clear the construction bit and re-walk.
        head.compare_exchange_strong(curr_m, curr_m.without_pend(),
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed);
        restart(g);
        continue;
      }
      KvNode* curr = curr_m.ptr();
      bool retry = false;
      while (curr != nullptr) {
        MP next = hp.next.protect(curr->next);
        if (!g.valid()) {
          retry = true;
          break;
        }
        const MP pv = prev->load(std::memory_order_seq_cst);
        if (pv == MP(curr).with_pend()) {
          MP e = pv;
          prev->compare_exchange_strong(e, MP(curr),
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
          retry = true;
          break;
        }
        if (pv != MP(curr)) {
          if (pv.tagged())
            return {nullptr, nullptr, MP{}, FindStatus::kMigrate};
          retry = true;
          break;
        }
        if (next.pended()) {
          MP e = next;
          curr->next.compare_exchange_strong(e, next.without_pend(),
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed);
          retry = true;
          break;
        }
        if (next.tagged()) return {nullptr, nullptr, MP{}, FindStatus::kMigrate};
        if (next.marked()) {
          // Eager unlink of the logically deleted curr; the unlink winner
          // owns the node's retirement (its blob was already claimed by
          // the eraser's val exchange).
          MP expected(curr);
          if (!prev->compare_exchange_strong(expected, next.clean(),
                                             std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
            if (expected.tagged())
              return {nullptr, nullptr, MP{}, FindStatus::kMigrate};
            retry = true;
            break;
          }
          h.retire(curr);
          curr = next.ptr();
          hp.curr.dup_from(hp.next);
          continue;
        }
        const int c = kv_compare(hash, key, curr);
        if (c <= 0) {
          return {prev, curr, next,
                  c == 0 ? FindStatus::kFound : FindStatus::kAbsent};
        }
        prev = &curr->next;
        hp.prev.dup_from(hp.curr);
        curr = next.ptr();
        hp.curr.dup_from(hp.next);
      }
      if (!retry) return {prev, nullptr, MP{}, FindStatus::kAbsent};
      restart(g);
    }
  }

  // Finishes a half-completed erase whose val link is already tagged-null:
  // marks the node and makes one unlink attempt.  The unlink winner (here
  // or a later find() cleanup) retires the node.
  void help_erase(Handle& h, const Position& pos) {
    MP next = pos.curr->next.load(std::memory_order_seq_cst);
    while (!next.marked() && !next.tagged()) {
      if (pos.curr->next.compare_exchange_strong(next, next.with_mark(),
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
        next = next.with_mark();
        break;
      }
    }
    if (!next.marked() || next.tagged()) return;  // frozen: migrator's job
    MP expected(pos.curr);
    if (pos.prev->compare_exchange_strong(expected, next.clean(),
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
      h.retire(pos.curr);
    }
  }

  PutOutcome try_put(Handle& h, BucketSlot& b, std::uint64_t hash,
                     std::string_view key, std::string_view value) {
    Guard g(h);
    Hp hp(g);
    KvNode* n = nullptr;
    KvBlob* nb = nullptr;
    const auto discard = [&] {
      if (n != nullptr) h.dealloc_unpublished(n);
      if (nb != nullptr) h.dealloc_unpublished(nb);
    };
    for (;;) {
      Position pos = find(g, hp, b.head, hash, key);
      if (pos.status == FindStatus::kMigrate) {
        discard();
        return PutOutcome::kMigrate;
      }
      if (pos.status == FindStatus::kFound) {
        const BlobMP bv = pos.curr->val.load(std::memory_order_seq_cst);
        if (bv.tagged()) {
          if (bv.ptr() != nullptr) {  // frozen live value
            discard();
            return PutOutcome::kMigrate;
          }
          help_erase(h, pos);  // tagged-null: a delete is in flight
          continue;            // then race to reinsert
        }
        if (nb == nullptr) nb = make_blob(h, value);
        BlobMP expected = bv;
        if (pos.curr->val.compare_exchange_strong(expected, BlobMP(nb),
                                                  std::memory_order_seq_cst,
                                                  std::memory_order_relaxed)) {
          nb = nullptr;        // published
          h.retire(bv.ptr());  // the replaced blob is ours to retire
          if (n != nullptr) h.dealloc_unpublished(n);
          return PutOutcome::kUpdated;
        }
        continue;  // lost the val race (update/erase/freeze); re-find
      }
      // Absent: link a fresh node before pos.curr.
      if (nb == nullptr) nb = make_blob(h, value);
      if (n == nullptr) {
        n = make_node(h, hash, key, nb);
      } else {
        n->val.store(BlobMP(nb), std::memory_order_relaxed);
      }
      n->next.store(MP(pos.curr), std::memory_order_relaxed);
      MP expected(pos.curr);
      if (pos.prev->compare_exchange_strong(expected, MP(n),
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
        return PutOutcome::kInserted;
      }
      if (expected.tagged()) {
        discard();
        return PutOutcome::kMigrate;
      }
    }
  }

  OpOutcome try_erase(Handle& h, BucketSlot& b, std::uint64_t hash,
                      std::string_view key) {
    Guard g(h);
    Hp hp(g);
    for (;;) {
      Position pos = find(g, hp, b.head, hash, key);
      if (pos.status == FindStatus::kMigrate) return OpOutcome::kMigrate;
      if (pos.status == FindStatus::kAbsent) return OpOutcome::kFalse;
      const BlobMP bv = pos.curr->val.load(std::memory_order_seq_cst);
      if (bv.tagged()) {
        if (bv.ptr() != nullptr) return OpOutcome::kMigrate;  // frozen
        help_erase(h, pos);
        // Tagged-null is either a concurrent erase or a migration sever;
        // only the sever also tags the next link.  A severed pair may be
        // live in the child bucket, so the op must re-route.
        if (pos.curr->next.load(std::memory_order_seq_cst).tagged())
          return OpOutcome::kMigrate;
        return OpOutcome::kFalse;  // lost to a concurrent erase
      }
      // The exchange to tagged-null is the linearization point of the
      // delete (readers treat tagged-null as absent) and claims blob
      // custody for this eraser.
      BlobMP expected = bv;
      if (!pos.curr->val.compare_exchange_strong(expected,
                                                 BlobMP(nullptr, kTagBit),
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_relaxed)) {
        continue;  // val changed under us; re-find
      }
      help_erase(h, pos);
      h.retire(bv.ptr());
      return OpOutcome::kTrue;
    }
  }

  OpOutcome try_get(Handle& h, BucketSlot& b, std::uint64_t hash,
                    std::string_view key, std::string* out) {
    Guard g(h);
    Hp hp(g);
    for (;;) {
      Position pos = find(g, hp, b.head, hash, key);
      if (pos.status == FindStatus::kMigrate) return OpOutcome::kMigrate;
      if (pos.status == FindStatus::kAbsent) return OpOutcome::kFalse;
      // protect() republishes until the val word is stable, and every blob
      // retirement is preceded by a store that moves val off the blob
      // (update CAS, erase exchange, migration sever) — the standard
      // publish-then-validate argument, applied to the value link.  A
      // tagged (frozen) live blob is still readable: the frozen chain stays
      // authoritative until its bucket is DONE.
      const Protected<KvBlob> pb = hp.blob.protect(pos.curr->val);
      if (!g.valid()) {
        restart(g);
        continue;
      }
      if (pb.get() == nullptr) {
        // Tagged-null is either an erase or a migration sever; only the
        // sever also tags the next link.  A severed pair may be live in
        // the child bucket, so re-route instead of reporting absent.
        if (pos.curr->next.load(std::memory_order_seq_cst).tagged())
          return OpOutcome::kMigrate;
        return OpOutcome::kFalse;  // erased
      }
      if (pb.tagged() && b.done.load(std::memory_order_seq_cst) != 0) {
        // Frozen live value, but the bucket has been copied out: the child
        // chain is authoritative now and may hold a newer value.
        return OpOutcome::kMigrate;
      }
      if (out != nullptr) out->assign(pb->view());
      return OpOutcome::kTrue;
    }
  }

  OpOutcome try_contains(Handle& h, BucketSlot& b, std::uint64_t hash,
                         std::string_view key) {
    Guard g(h);
    Hp hp(g);
    Position pos = find(g, hp, b.head, hash, key);
    if (pos.status == FindStatus::kMigrate) return OpOutcome::kMigrate;
    if (pos.status == FindStatus::kAbsent) return OpOutcome::kFalse;
    const BlobMP bv = pos.curr->val.load(std::memory_order_seq_cst);
    if (bv.ptr() != nullptr) {
      if (bv.tagged() && b.done.load(std::memory_order_seq_cst) != 0)
        return OpOutcome::kMigrate;  // copied out; child is authoritative
      return OpOutcome::kTrue;
    }
    // Distinguish erase (next at most marked) from sever (next tagged):
    // a severed pair may be live in the child bucket.
    if (pos.curr->next.load(std::memory_order_seq_cst).tagged())
      return OpOutcome::kMigrate;
    return OpOutcome::kFalse;
  }

  // --- resize -------------------------------------------------------------
  void maybe_resize(Handle& h) {
    if (pending_.load(std::memory_order_acquire) != 0) {
      help_drain(h);
      return;
    }
    const std::uint32_t g = gen_.load(std::memory_order_acquire);
    const std::size_t n = gen_count(g);
    if (n >= max_buckets_) return;
    const std::int64_t size = size_.load(std::memory_order_relaxed);
    if (size <= static_cast<std::int64_t>(
                    static_cast<std::size_t>(max_load_factor_) * n))
      return;
    std::uint64_t expected = 0;
    if (!pending_.compare_exchange_strong(expected, n,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
      return;  // another writer owns the round
    // Winning the claim is not yet the round's start: this thread may have
    // slept between the gen_ load above and the CAS win, across one or more
    // COMPLETE rounds (pending_ back at 0).  Publishing g+1 then would
    // either wedge the map (pending_ counts buckets that are already DONE
    // and can never be decremented again) or regress gen_ outright.  So
    // re-validate under the claim: gen_ advances only while a claim is held
    // and a stale claim blocks any new claim, so if it still reads g here
    // it stays g until we publish.
    if (gen_.load(std::memory_order_seq_cst) != g) {
      // Stale claim.  While we held it no round could start and no
      // decrement could land (every bucket of the completed rounds is
      // DONE), so a plain store restores the idle state.
      pending_.store(0, std::memory_order_release);
      return;
    }
    // Extend the directory for generation g+1 and seed every child head
    // with kPendBit BEFORE publishing, so (a) any thread that reads the new
    // generation can address every child slot and (b) the in-flight child
    // chains carry the construction bit from their very first word (the
    // sole writer here is the validated claim holder: nothing else touches
    // gen g+1 slots until gen_ is published).
    buckets_.ensure(gen_base(g + 1) + gen_count(g + 1) - 1);
    for (std::size_t j = 0; j < gen_count(g + 1); ++j)
      slot_at(g + 1, j).head.store(MP(nullptr, kPendBit),
                                   std::memory_order_relaxed);
    seeded_gen_.store(g + 1, std::memory_order_release);
    // CAS, not store: a drainer that saw seeded_gen_ may have published on
    // our behalf, and by now later rounds may have run — a blind store
    // could regress gen_.
    std::uint32_t eg = g;
    gen_.compare_exchange_strong(eg, g + 1, std::memory_order_seq_cst,
                                 std::memory_order_relaxed);
  }

  // Finishes the publish of a claimed round g -> g+1 on the winner's
  // behalf, once the winner has extended and seeded the child directory
  // (seeded_gen_ == g+1; ensure/seed are permanent, so observing that value
  // means the directory is usable forever after).  Safe against arbitrary
  // staleness of `g`: gen_ is monotone and only this round's publish moves
  // it from g, so the CAS succeeding means the round really was in its
  // claimed-but-unpublished window.
  bool try_help_publish(std::uint32_t g) {
    if (seeded_gen_.load(std::memory_order_acquire) != g + 1) return false;
    std::uint32_t eg = g;
    gen_.compare_exchange_strong(eg, g + 1, std::memory_order_seq_cst,
                                 std::memory_order_relaxed);
    return true;
  }

  // Writers that see a round in flight migrate a couple of buckets past a
  // rotating cursor, so the round completes under write load even when the
  // access pattern never touches the cold buckets.
  void help_drain(Handle& h) {
    const std::uint32_t g = gen_.load(std::memory_order_acquire);
    const std::uint64_t p = pending_.load(std::memory_order_acquire);
    if (p == 0) return;
    if (p == gen_count(g) && gen_.load(std::memory_order_acquire) == g) {
      try_help_publish(g);  // claimed but unpublished: nothing to migrate
      return;
    }
    if (g == 0) return;
    const std::size_t old_n = gen_count(g - 1);
    const std::uint64_t cur = cursor_.fetch_add(2, std::memory_order_relaxed);
    for (unsigned i = 0; i < 2; ++i) {
      const std::size_t p = static_cast<std::size_t>(cur + i) & (old_n - 1);
      if (slot_at(g - 1, p).done.load(std::memory_order_acquire) == 0)
        migrate_bucket(h, g - 1, p);
    }
  }

  // Brings bucket (old_gen, p) to DONE: freeze, cooperative copy, then the
  // DONE winner seals the child chains, severs and retires the old chain.
  // Runs to completion; safe to call from any number of helpers
  // concurrently.
  void migrate_bucket(Handle& h, std::uint32_t old_gen, std::size_t p) {
    BucketSlot& ps = slot_at(old_gen, p);
    if (ps.done.load(std::memory_order_acquire) != 0) return;
    freeze_chain(h, ps);
    copy_chain(h, old_gen, p, ps);
    std::uint32_t expected = 0;
    if (ps.done.compare_exchange_strong(expected, 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
      // Seal before the pending_ decrement: the next round can only claim
      // once pending_ hits 0, so its freeze never meets a kPendBit word.
      seal_chain(h, slot_at(old_gen + 1, p));
      seal_chain(h, slot_at(old_gen + 1, p + gen_count(old_gen)));
      sever_and_retire(h, ps);
      migrated_.fetch_add(1, std::memory_order_relaxed);
      pending_.fetch_sub(1, std::memory_order_release);
    }
  }

  // DONE-winner epilogue, part 1: strips kPendBit from every link of a
  // now-authoritative child chain (the seeded head, each node's next,
  // including terminal nulls).  The chain is live — clients reached it the
  // moment the parent's done flag rose — so the walk is hazard-protected
  // and tolerates concurrent inserts (they install pend-free words),
  // unlinks (an unlinked node's word no longer matters), and clients
  // helping with the same clears.  No post-round mutation re-installs the
  // bit and a stale copier's pend-expected commit cannot succeed once the
  // round is over, so one completed pass leaves the chain pend-free.
  void seal_chain(Handle& h, BucketSlot& cb) {
    Guard g(h);
    FreezeHp hp(g);
    for (;;) {
      MP head = cb.head.load(std::memory_order_seq_cst);
      while (head.pended() &&
             !cb.head.compare_exchange_strong(head, head.without_pend(),
                                              std::memory_order_seq_cst,
                                              std::memory_order_seq_cst)) {
      }
      MP curr_m = hp.curr.protect(cb.head);
      if (!g.valid()) {
        restart(g);
        continue;
      }
      KvNode* n = curr_m.ptr();
      bool invalidated = false;
      while (n != nullptr) {
        MP nx = n->next.load(std::memory_order_seq_cst);
        while (nx.pended() &&
               !n->next.compare_exchange_strong(nx, nx.without_pend(),
                                                std::memory_order_seq_cst,
                                                std::memory_order_seq_cst)) {
        }
        const Protected<KvNode> step = hp.next.protect(n->next);
        if (!g.valid()) {
          invalidated = true;
          break;
        }
        n = step.get();
        hp.curr.dup_from(hp.next);
      }
      if (!invalidated) return;
      restart(g);
    }
  }

  // Tags the head and every val/next link, in chain order.  After the head
  // is tagged no insert can land at the front and no unlink of the first
  // node can succeed; inductively, once a node's next is tagged its
  // successor is pinned in the chain.  That pin argument holds only against
  // *mutators*, not against a DONE winner's sever-and-retire — a freezer
  // that sleeps here while other helpers finish the round would otherwise
  // wake up standing on retired nodes — so the walk is hazard-protected
  // like every other traversal.  After a sever, every link reads
  // tagged-null and the walk terminates immediately.  Mutators race the
  // tag CASes and may win individual rounds, but every winner strictly
  // decreases the remaining untagged suffix's work, so the loop terminates.
  void freeze_chain(Handle& h, BucketSlot& ps) {
    Guard g(h);
    FreezeHp hp(g);
    for (;;) {
      MP head = ps.head.load(std::memory_order_seq_cst);
      // A bucket only becomes a freeze target one full round after it was
      // built, and its construction round sealed it before decrementing
      // pending_ — so the construction bit must be long gone.
      assert(!head.pended());
      while (!head.tagged() &&
             !ps.head.compare_exchange_strong(head, head.with_tag(),
                                              std::memory_order_seq_cst,
                                              std::memory_order_seq_cst)) {
      }
      MP curr_m = hp.curr.protect(ps.head);
      if (!g.valid()) {
        restart(g);
        continue;
      }
      KvNode* n = curr_m.ptr();
      bool invalidated = false;
      while (n != nullptr) {
        BlobMP v = n->val.load(std::memory_order_seq_cst);
        while (!v.tagged() &&
               !n->val.compare_exchange_strong(v, v.with_tag(),
                                               std::memory_order_seq_cst,
                                               std::memory_order_seq_cst)) {
        }
        MP nx = n->next.load(std::memory_order_seq_cst);
        while (!nx.tagged() &&
               !n->next.compare_exchange_strong(nx, nx.with_tag(),
                                                std::memory_order_seq_cst,
                                                std::memory_order_seq_cst)) {
        }
        // n->next is tagged (immutable to mutators) from here on, so the
        // successor protect stabilises at once and the hazard covers the
        // next node before we step onto it.  A concurrent sever overwrites
        // the link to tagged-null, which ends the walk.
        const Protected<KvNode> step = hp.next.protect(n->next);
        if (!g.valid()) {
          invalidated = true;
          break;
        }
        n = step.get();
        hp.curr.dup_from(hp.next);
      }
      if (!invalidated) return;
      restart(g);
    }
  }

  // Copies every live pair of the frozen chain into the child buckets of
  // generation old_gen+1.  Hazard-protected even though the chain is
  // immutable: a concurrent helper may win the DONE race and sever/retire
  // the chain under us, which the prev-link validation detects.
  void copy_chain(Handle& h, std::uint32_t old_gen, std::size_t /*p*/,
                  BucketSlot& ps) {
    const std::uint32_t new_gen = old_gen + 1;
    for (;;) {
      if (ps.done.load(std::memory_order_acquire) != 0) return;
      Guard g(h);
      Hp hp(g);
      ChildHp chp(g);
      Link* prev = &ps.head;
      MP curr_m = hp.curr.protect(ps.head);
      if (!g.valid()) {
        restart(g);
        continue;
      }
      KvNode* curr = curr_m.ptr();
      bool retry = false;
      while (curr != nullptr) {
        const MP next = hp.next.protect(curr->next);
        if (!g.valid()) {
          retry = true;
          break;
        }
        if (prev->load(std::memory_order_seq_cst).ptr() != curr) {
          retry = true;  // severed under us (or freeze still racing)
          break;
        }
        const Protected<KvBlob> pb = hp.blob.protect(curr->val);
        if (!g.valid()) {
          retry = true;
          break;
        }
        if (!next.marked() && pb.get() != nullptr) {
          if (!insert_copy(g, chp, h,
                           slot_at(new_gen, static_cast<std::size_t>(
                                                curr->hash) &
                                                (gen_count(new_gen) - 1)),
                           ps.done, curr, pb.get())) {
            retry = true;
            break;
          }
        }
        prev = &curr->next;
        hp.prev.dup_from(hp.curr);
        curr = next.ptr();
        hp.curr.dup_from(hp.next);
      }
      if (!retry) return;
      if (ps.done.load(std::memory_order_acquire) != 0) return;
      restart(g);
    }
  }

  // Insert-if-absent of a copy of (src, blob) into a child chain.  While
  // the round is in flight the child chain is invisible to normal
  // operations, so the only races are between helpers copying the same
  // bucket, which insert-if-absent absorbs.  A helper can also sleep here
  // across the end of its round and into later ones; then the child chain
  // is live — or frozen/severed by a later round — and this helper must
  // not commit a stale copy.  The kPendBit discipline enforces that:
  // every word of an in-flight child chain carries the bit (seeded head,
  // each installed next, terminal nulls), the DONE winner's seal strips it,
  // and every post-round mutation installs pend-free words.  So this walk
  // requires the bit on every word it reads — a clean, tagged, or marked
  // word means the round is over — and the commit CAS's expected value
  // carries it too.  That closes the insert-then-delete ABA a bare
  // expected-value check cannot see: if another helper copies this key
  // here, the round completes, and a client then erases and unlinks that
  // copy, prev holds the pend-FREE word MP(curr) — our pend-expected CAS
  // fails instead of resurrecting the erased key.  (The parent-DONE check
  // before the commit is kept as a cheap early exit; the pend bit is what
  // carries the safety argument, see DESIGN.md §10.)
  // Returns false when the whole copy pass must restart (guard invalidated
  // or round over); the caller re-checks the parent's DONE flag and exits.
  bool insert_copy(Guard& g, ChildHp& chp, Handle& h, BucketSlot& cb,
                   const std::atomic<std::uint32_t>& parent_done,
                   const KvNode* src, const KvBlob* blob) {
    const std::uint64_t hash = src->hash;
    const std::string_view key = src->key();
    KvNode* n = nullptr;
    KvBlob* nb = nullptr;
    const auto discard = [&] {
      if (n != nullptr) h.dealloc_unpublished(n);
      if (nb != nullptr) h.dealloc_unpublished(nb);
    };
    for (;;) {
      Link* prev = &cb.head;
      MP curr_m = chp.curr.protect(cb.head);
      if (!g.valid()) {
        discard();
        return false;
      }
      if (curr_m.tagged() || !curr_m.pended()) {  // round over: sealed,
        discard();                                // frozen, or severed
        return false;
      }
      KvNode* curr = curr_m.ptr();
      bool retry = false;
      while (curr != nullptr) {
        const MP next = chp.next.protect(curr->next);
        if (!g.valid()) {
          discard();
          return false;
        }
        const MP pv = prev->load(std::memory_order_seq_cst);
        if (pv != MP(curr, kPendBit)) {
          if (pv.tagged() || !pv.pended()) {
            discard();
            return false;
          }
          retry = true;  // a concurrent helper's copy landed here
          break;
        }
        if (next.tagged() || next.marked() || !next.pended()) {
          discard();
          return false;
        }
        const int c = kv_compare(hash, key, curr);
        if (c == 0) {  // another helper won this pair
          discard();
          return true;
        }
        if (c < 0) break;
        prev = &curr->next;
        chp.prev.dup_from(chp.curr);
        curr = next.ptr();
        chp.curr.dup_from(chp.next);
      }
      if (retry) continue;
      if (parent_done.load(std::memory_order_seq_cst) != 0) {
        discard();
        return false;
      }
      if (nb == nullptr) nb = make_blob(h, blob->view());
      if (n == nullptr) {
        n = make_node(h, hash, key, nb);
      }
      n->next.store(MP(curr, kPendBit), std::memory_order_relaxed);
      MP expected(curr, kPendBit);
      if (prev->compare_exchange_strong(expected, MP(n, kPendBit),
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return true;
      }
      if (expected.tagged() || !expected.pended()) {
        discard();
        return false;
      }
    }
  }

  // DONE-winner epilogue.  Severs EVERY link of the frozen chain (head,
  // next, val) to tagged-null first and retires the cells only afterwards:
  // a reader that protected a node or blob through one of these links did
  // so while the link still pointed at it, so validation-based schemes see
  // either the pre-sever word (protection holds, reclamation waits) or a
  // tagged word (operation re-routes).
  void sever_and_retire(Handle& h, BucketSlot& ps) {
    std::vector<KvNode*> nodes;
    for (KvNode* n = ps.head.load(std::memory_order_seq_cst).ptr();
         n != nullptr; n = n->next.load(std::memory_order_seq_cst).ptr()) {
      nodes.push_back(n);
    }
    ps.head.store(MP(nullptr, kTagBit), std::memory_order_seq_cst);
    for (KvNode* n : nodes) {
      n->next.store(MP(nullptr, kMarkBit | kTagBit),
                    std::memory_order_seq_cst);
    }
    std::vector<KvBlob*> blobs;
    blobs.reserve(nodes.size());
    for (KvNode* n : nodes) {
      const BlobMP v = n->val.load(std::memory_order_seq_cst);
      n->val.store(BlobMP(nullptr, kTagBit), std::memory_order_seq_cst);
      // A marked node's blob was claimed by its eraser; only live frozen
      // blobs are the migrator's to retire.
      if (v.ptr() != nullptr) blobs.push_back(v.ptr());
    }
    Guard g(h);  // retire inside an op bracket, like every structure here
    for (KvBlob* b : blobs) h.retire(b);
    for (KvNode* n : nodes) h.retire(n);
  }

  AtomicChunkedArray<BucketSlot> buckets_;
  std::size_t initial_ = 16;
  std::size_t max_buckets_ = std::size_t{1} << 20;
  unsigned max_load_factor_ = 4;
  alignas(kCacheLine) std::atomic<std::uint32_t> gen_{0};
  // Highest generation whose directory extension + kPendBit head seeding
  // has completed (monotone; written only by validated round claimants).
  // Gates try_help_publish: helpers may finish a stalled winner's gen_
  // publish only once the child slots are fully usable.
  std::atomic<std::uint32_t> seeded_gen_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> cursor_{0};
  alignas(kCacheLine) std::atomic<std::int64_t> size_{0};
  std::atomic<std::uint64_t> migrated_{0};
  Smr& smr_;
};

}  // namespace scot
