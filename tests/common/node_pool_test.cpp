#include "smr/node_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "tests/test_util.hpp"

namespace scot {
namespace {

TEST(NodePool, AllocatesDistinctAlignedCells) {
  NodePool pool(1);
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = pool.alloc(0, 48);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate allocation";
  }
}

TEST(NodePool, FreeThenAllocReusesMemory) {
  NodePool pool(1);
  void* p = pool.alloc(0, 48);
  static_cast<ReclaimNode*>(p)->alloc_size = 48;
  pool.free(0, p, 48);
  void* q = pool.alloc(0, 48);
  EXPECT_EQ(p, q) << "same-size free-list should serve LIFO";
  EXPECT_EQ(pool.total_reused(), 1u);
}

TEST(NodePool, DifferentSizeClassesDoNotMix) {
  NodePool pool(1);
  void* small = pool.alloc(0, 24);
  pool.free(0, small, 24);
  void* big = pool.alloc(0, 200);
  EXPECT_NE(small, big) << "a 200-byte request must not reuse a 24-byte cell";
}

TEST(NodePool, BirthEraSurvivesFreeAndReuseIsMonotone) {
  // The Hyaline-1S soundness contract (DESIGN.md §4): the 16-byte header is
  // preserved across free, and a reused cell gets a newer era *before* the
  // node is published.
  NodePool pool(1);
  void* p = pool.alloc(0, 48);
  header_of(p)->birth_era.store(41, std::memory_order_release);
  pool.free(0, p, 48);
  EXPECT_EQ(header_of(p)->birth_era.load(std::memory_order_acquire), 41u)
      << "free() must not clobber the allocation header";
  void* q = pool.alloc(0, 48);
  ASSERT_EQ(p, q);
  EXPECT_EQ(header_of(q)->birth_era.load(std::memory_order_acquire), 41u)
      << "alloc() itself must not reset the header; the handle stamps it";
}

TEST(NodePool, FreelistLinkDoesNotOverlapHeader) {
  // The free-list link reuses ReclaimNode::smr_next, which lives inside the
  // node, not in the preceding header.
  NodePool pool(1);
  void* a = pool.alloc(0, 48);
  header_of(a)->birth_era.store(7, std::memory_order_release);
  void* b = pool.alloc(0, 48);
  header_of(b)->birth_era.store(8, std::memory_order_release);
  pool.free(0, a, 48);
  pool.free(0, b, 48);  // b links to a through smr_next
  EXPECT_EQ(header_of(a)->birth_era.load(std::memory_order_acquire), 7u);
  EXPECT_EQ(header_of(b)->birth_era.load(std::memory_order_acquire), 8u);
}

TEST(NodePool, ShardsAreIndependent) {
  NodePool pool(2);
  void* a = pool.alloc(0, 48);
  pool.free(0, a, 48);
  // Shard 1 must not see shard 0's free list.
  void* b = pool.alloc(1, 48);
  EXPECT_NE(a, b);
  // But shard 0 still reuses its own.
  EXPECT_EQ(pool.alloc(0, 48), a);
}

TEST(NodePool, CrossShardMigration) {
  // Hyaline frees through the reclaiming thread's shard: memory allocated by
  // shard 0 may be freed into shard 1 and reused there.
  NodePool pool(2);
  void* a = pool.alloc(0, 48);
  pool.free(1, a, 48);
  EXPECT_EQ(pool.alloc(1, 48), a);
}

TEST(NodePool, CarveStatsAdvance) {
  NodePool pool(1);
  const auto before = pool.total_carved();
  (void)pool.alloc(0, 48);
  EXPECT_EQ(pool.total_carved(), before + 1);
  EXPECT_GE(pool.total_block_bytes(), NodePool::kBlockBytes);
}

TEST(NodePool, MaxNodeBytesFitsLargestClass) {
  NodePool pool(1);
  void* p = pool.alloc(0, NodePool::max_node_bytes());
  EXPECT_NE(p, nullptr);
}

TEST(NodePool, DebugStateTracksLifecycle) {
  NodePool pool(1);
  auto* n = static_cast<ReclaimNode*>(pool.alloc(0, 48));
  n->debug_state = kNodeLive;
  n->alloc_size = 48;
  pool.free(0, n, 48);
  EXPECT_EQ(n->debug_state, kNodeFreed);
}

TEST(NodePool, ManyBlocksWhenExhausted) {
  NodePool pool(1);
  // 256 KiB blocks of 64-byte cells -> force at least two blocks.
  const int n = static_cast<int>(NodePool::kBlockBytes / 64) + 10;
  for (int i = 0; i < n; ++i) (void)pool.alloc(0, 48);
  EXPECT_GE(pool.total_block_bytes(), 2 * NodePool::kBlockBytes);
}

std::uintptr_t chunk_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) & ~(NodePool::kChunkBytes - 1);
}

TEST(NodePool, ShardsCarveBlocksFromOneAlignedChunk) {
  NodePool pool(2);
  void* a = pool.alloc(0, 48);
  void* b = pool.alloc(1, 48);
  EXPECT_EQ(chunk_of(a), chunk_of(b));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(header_of(a)), chunk_of(a))
      << "the first cell starts a 2 MB-aligned chunk";
  EXPECT_EQ(pool.total_chunk_bytes(), NodePool::kChunkBytes);
  EXPECT_EQ(pool.total_block_bytes(), 2 * NodePool::kBlockBytes);
}

TEST(NodePool, UncarvedChunkBytesStayBelowOneChunk) {
  // The bound behind the pool's resident-memory cost: however the shards
  // interleave, only the current chunk has bytes no shard has taken.
  NodePool pool(3);
  for (unsigned i = 0; pool.total_block_bytes() < 9 * NodePool::kBlockBytes;
       ++i) {
    (void)pool.alloc(i % 3, NodePool::max_node_bytes());
  }
  EXPECT_GE(pool.total_chunk_bytes(), 2 * NodePool::kChunkBytes);
  EXPECT_LT(pool.total_chunk_bytes() - pool.total_block_bytes(),
            NodePool::kChunkBytes);
}

TEST(NodePool, BirthEraSurvivesReuseInALaterChunk) {
  NodePool pool(1);
  const std::uintptr_t first = chunk_of(pool.alloc(0, 48));
  void* p = nullptr;
  do {
    p = pool.alloc(0, NodePool::max_node_bytes());
  } while (chunk_of(p) == first);
  EXPECT_EQ(pool.total_chunk_bytes(), 2 * NodePool::kChunkBytes);
  header_of(p)->birth_era.store(77, std::memory_order_release);
  pool.free(0, p, NodePool::max_node_bytes());
  void* q = pool.alloc(0, NodePool::max_node_bytes());
  ASSERT_EQ(p, q);
  EXPECT_EQ(header_of(q)->birth_era.load(std::memory_order_acquire), 77u);
}

}  // namespace
}  // namespace scot
