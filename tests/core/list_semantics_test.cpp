// Sequential set semantics for the three list variants (Harris-Michael,
// Harris+SCOT, Harris+SCOT simple traversal), typed over all seven SMR
// schemes: one implementation bug in protect/dup plumbing typically shows up
// as a semantic failure in exactly one (structure, scheme) cell.
#include <gtest/gtest.h>

#include <limits>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

template <class Smr>
struct ListFixtures {
  using HM = HarrisMichaelList<Key, Val, Smr>;
  using HL = HarrisList<Key, Val, Smr>;
  using HLSimple = HarrisList<Key, Val, Smr, HarrisListSimpleTraits>;
};

template <class Smr>
class ListSemanticsTest : public ::testing::Test {};

TYPED_TEST_SUITE(ListSemanticsTest, test::AllSchemes);

template <class List, class Smr>
void check_basic_semantics(Smr& smr) {
  List list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_FALSE(list.contains(h, 1));
  EXPECT_FALSE(list.erase(h, 1));
  EXPECT_EQ(list.size_unsafe(), 0u);

  EXPECT_TRUE(list.insert(h, 1, 10));
  EXPECT_TRUE(list.insert(h, 3, 30));
  EXPECT_TRUE(list.insert(h, 2, 20));
  EXPECT_FALSE(list.insert(h, 2, 99)) << "duplicate insert must fail";
  EXPECT_EQ(list.size_unsafe(), 3u);

  EXPECT_TRUE(list.contains(h, 1));
  EXPECT_TRUE(list.contains(h, 2));
  EXPECT_TRUE(list.contains(h, 3));
  EXPECT_FALSE(list.contains(h, 4));

  EXPECT_EQ(list.get(h, 1).value_or(0), 10u);
  EXPECT_EQ(list.get(h, 2).value_or(0), 20u) << "duplicate must keep old value";
  EXPECT_FALSE(list.get(h, 4).has_value());

  EXPECT_TRUE(list.erase(h, 2));
  EXPECT_FALSE(list.erase(h, 2));
  EXPECT_FALSE(list.contains(h, 2));
  EXPECT_EQ(list.size_unsafe(), 2u);

  // Reinsert after erase.
  EXPECT_TRUE(list.insert(h, 2, 21));
  EXPECT_EQ(list.get(h, 2).value_or(0), 21u);
}

template <class List, class Smr>
void check_boundary_keys(Smr& smr) {
  List list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  const Key lo = 0;
  const Key hi = std::numeric_limits<Key>::max();
  EXPECT_TRUE(list.insert(h, lo, 1));
  EXPECT_TRUE(list.insert(h, hi, 2));
  EXPECT_TRUE(list.contains(h, lo));
  EXPECT_TRUE(list.contains(h, hi));
  EXPECT_FALSE(list.insert(h, hi, 3));
  EXPECT_TRUE(list.erase(h, lo));
  EXPECT_TRUE(list.contains(h, hi)) << "erasing 0 must not disturb max-key";
  EXPECT_TRUE(list.erase(h, hi));
  EXPECT_EQ(list.size_unsafe(), 0u);
}

template <class List, class Smr>
void check_descending_and_ascending_fill(Smr& smr) {
  {
    List list(smr);
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    for (Key k = 100; k-- > 0;) EXPECT_TRUE(list.insert(h, k, k));
    EXPECT_EQ(list.size_unsafe(), 100u);
    for (Key k = 0; k < 100; ++k) EXPECT_TRUE(list.contains(h, k));
  }
  {
    List list(smr);
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    for (Key k = 0; k < 100; ++k) EXPECT_TRUE(list.insert(h, k, k));
    for (Key k = 0; k < 100; ++k) EXPECT_TRUE(list.erase(h, k));
    EXPECT_EQ(list.size_unsafe(), 0u);
  }
}

TYPED_TEST(ListSemanticsTest, HarrisMichaelBasics) {
  TypeParam smr(test::small_config());
  check_basic_semantics<typename ListFixtures<TypeParam>::HM>(smr);
}
TYPED_TEST(ListSemanticsTest, HarrisScotBasics) {
  TypeParam smr(test::small_config());
  check_basic_semantics<typename ListFixtures<TypeParam>::HL>(smr);
}
TYPED_TEST(ListSemanticsTest, HarrisScotSimpleBasics) {
  TypeParam smr(test::small_config());
  check_basic_semantics<typename ListFixtures<TypeParam>::HLSimple>(smr);
}

TYPED_TEST(ListSemanticsTest, HarrisMichaelBoundaryKeys) {
  TypeParam smr(test::small_config());
  check_boundary_keys<typename ListFixtures<TypeParam>::HM>(smr);
}
TYPED_TEST(ListSemanticsTest, HarrisScotBoundaryKeys) {
  TypeParam smr(test::small_config());
  check_boundary_keys<typename ListFixtures<TypeParam>::HL>(smr);
}

TYPED_TEST(ListSemanticsTest, HarrisMichaelFillPatterns) {
  TypeParam smr(test::small_config());
  check_descending_and_ascending_fill<typename ListFixtures<TypeParam>::HM>(
      smr);
}
TYPED_TEST(ListSemanticsTest, HarrisScotFillPatterns) {
  TypeParam smr(test::small_config());
  check_descending_and_ascending_fill<typename ListFixtures<TypeParam>::HL>(
      smr);
}

TYPED_TEST(ListSemanticsTest, CustomComparatorReversesOrder) {
  TypeParam smr(test::small_config());
  HarrisList<Key, Val, TypeParam, HarrisListTraits, std::greater<Key>> list(
      smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_TRUE(list.insert(h, 5, 0));
  EXPECT_TRUE(list.insert(h, 9, 0));
  EXPECT_TRUE(list.insert(h, 1, 0));
  EXPECT_FALSE(list.insert(h, 9, 0));
  EXPECT_TRUE(list.contains(h, 9));
  EXPECT_TRUE(list.erase(h, 5));
  EXPECT_FALSE(list.contains(h, 5));
  EXPECT_EQ(list.size_unsafe(), 2u);
}

TYPED_TEST(ListSemanticsTest, EraseToEmptyAndReuse) {
  TypeParam smr(test::small_config());
  typename ListFixtures<TypeParam>::HL list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (int round = 0; round < 10; ++round) {
    for (Key k = 0; k < 20; ++k) ASSERT_TRUE(list.insert(h, k, k));
    for (Key k = 0; k < 20; ++k) ASSERT_TRUE(list.erase(h, k));
    ASSERT_EQ(list.size_unsafe(), 0u) << "round " << round;
  }
  // Node recycling must have kicked in for reclaiming schemes.
  if constexpr (!std::is_same_v<TypeParam, NoReclaimDomain>) {
    EXPECT_GT(smr.pool().total_reused(), 0u);
  }
}

TYPED_TEST(ListSemanticsTest, GetReturnsInsertedValueNotDefault) {
  TypeParam smr(test::small_config());
  typename ListFixtures<TypeParam>::HM list(smr);
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  EXPECT_TRUE(list.insert(h, 123, 456));
  auto v = list.get(h, 123);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 456u);
}

}  // namespace
}  // namespace scot
