// Cells built during static initialization.  The namespace-scope objects
// below are dynamic initializers of this translation unit, and C++ leaves
// their order against the facades' own translation units unspecified: make()
// must build a cell no matter which initializers have run before it.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "scot.hpp"
#include "tests/test_util.hpp"

namespace scot {
namespace {

AnyMapOptions map_options() {
  AnyMapOptions options;
  options.smr = test::small_config(2);
  return options;
}

AnyKvOptions kv_options() {
  AnyKvOptions options;
  options.smr = test::small_config(2);
  return options;
}

AnyContainerOptions queue_options() {
  AnyContainerOptions options;
  options.smr = test::small_config(2);
  return options;
}

std::optional<AnyMap> g_map =
    AnyMap::make(SchemeId::kEBR, StructureId::kHList, map_options());
std::optional<AnyKv> g_kv =
    AnyKv::make(SchemeId::kHP, StructureId::kKvHash, kv_options());
std::optional<AnyQueue> g_queue =
    AnyQueue::make(SchemeId::kHLN, StructureId::kMSQueue, queue_options());

TEST(StaticInit, CellsBuiltBeforeMainExistAndServe) {
  ASSERT_TRUE(g_map.has_value());
  ASSERT_TRUE(g_kv.has_value());
  ASSERT_TRUE(g_queue.has_value());

  auto m = g_map->session();
  EXPECT_TRUE(m.insert(7, 70));
  EXPECT_EQ(m.get(7), std::optional<std::uint64_t>(70));

  auto kv = g_kv->session();
  EXPECT_TRUE(kv.put("key", "value"));
  EXPECT_EQ(kv.get("key"), std::optional<std::string>("value"));

  auto q = g_queue->session();
  EXPECT_TRUE(q.enqueue(5));
  EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(5));
}

}  // namespace
}  // namespace scot
