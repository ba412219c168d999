// Parameterized property sweep: every (structure, workload-shape) cell runs
// a randomized concurrent workload and then checks the sequential-coherence
// property (contains == erase for every key at quiescence) plus structure
// invariants.  This is the widest net in the suite; each combination is a
// distinct ctest case.
#include <gtest/gtest.h>

#include <tuple>

#include "tests/test_util.hpp"

namespace scot {
namespace {

using Key = std::uint64_t;
using Val = std::uint64_t;

struct SweepParam {
  unsigned threads;
  Key range;
  int write_pct;  // of 100; remainder are reads
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
  return os << p.label;
}

class MixedStressSweep : public ::testing::TestWithParam<SweepParam> {};

template <class Smr, class DS>
void sweep_body(const SweepParam& p, int iters) {
  Smr smr(test::small_config(p.threads));
  DS ds(smr);
  test::run_threads(p.threads, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid * 1299709 + p.range);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(p.range);
      const auto roll = static_cast<int>(rng.next_in(100));
      if (roll >= p.write_pct) {
        ds.contains(h, k);
      } else if (roll % 2 == 0) {
        ds.insert(h, k, k);
      } else {
        ds.erase(h, k);
      }
    }
  });
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < p.range; ++k) {
    { const bool was_present = ds.contains(h, k); const bool erased = ds.erase(h, k); ASSERT_EQ(was_present, erased) << "key " << k; }
  }
  ASSERT_EQ(ds.size_unsafe(), 0u);
}

TEST_P(MixedStressSweep, HarrisListUnderHp) {
  sweep_body<HpDomain, HarrisList<Key, Val, HpDomain>>(
      GetParam(), test::scaled_iters(15000));
}

TEST_P(MixedStressSweep, HarrisListUnderHyaline) {
  sweep_body<HyalineDomain, HarrisList<Key, Val, HyalineDomain>>(
      GetParam(), test::scaled_iters(15000));
}

TEST_P(MixedStressSweep, HarrisListUnderIbr) {
  sweep_body<IbrDomain, HarrisList<Key, Val, IbrDomain>>(
      GetParam(), test::scaled_iters(15000));
}

TEST_P(MixedStressSweep, HarrisMichaelUnderHe) {
  sweep_body<HeDomain, HarrisMichaelList<Key, Val, HeDomain>>(
      GetParam(), test::scaled_iters(15000));
}

TEST_P(MixedStressSweep, WaitFreeListUnderHpOpt) {
  sweep_body<HpOptDomain,
             HarrisList<Key, Val, HpOptDomain, HarrisListWaitFreeTraits>>(
      GetParam(), test::scaled_iters(15000));
}

template <class Smr>
void tree_sweep_body(const SweepParam& p, int iters) {
  Smr smr(test::small_config(p.threads));
  NatarajanMittalTree<Key, Val, Smr> tree(smr);
  test::run_threads(p.threads, [&](unsigned tid) {
    auto sh = scoped_handle(smr);
    auto& h = *sh;
    Xoshiro256 rng(tid * 31 + 11);
    for (int i = 0; i < iters; ++i) {
      const Key k = rng.next_in(p.range);
      const auto roll = static_cast<int>(rng.next_in(100));
      if (roll >= p.write_pct) {
        tree.contains(h, k);
      } else if (roll % 2 == 0) {
        tree.insert(h, k, k);
      } else {
        tree.erase(h, k);
      }
    }
  });
  ASSERT_TRUE(tree.check_structure_unsafe());
  auto sh = scoped_handle(smr);
  auto& h = *sh;
  for (Key k = 0; k < p.range; ++k) {
    { const bool was_present = tree.contains(h, k); const bool erased = tree.erase(h, k); ASSERT_EQ(was_present, erased) << "key " << k; }
  }
}

TEST_P(MixedStressSweep, TreeUnderHp) {
  tree_sweep_body<HpDomain>(GetParam(), test::scaled_iters(15000));
}

TEST_P(MixedStressSweep, TreeUnderHyaline) {
  tree_sweep_body<HyalineDomain>(GetParam(), test::scaled_iters(15000));
}

TEST_P(MixedStressSweep, TreeUnderEbr) {
  tree_sweep_body<EbrDomain>(GetParam(), test::scaled_iters(15000));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MixedStressSweep,
    ::testing::Values(
        SweepParam{2, 8, 50, "t2_r8_w50"},
        SweepParam{2, 128, 50, "t2_r128_w50"},
        SweepParam{4, 8, 50, "t4_r8_w50"},
        SweepParam{4, 64, 20, "t4_r64_w20"},
        SweepParam{4, 64, 100, "t4_r64_w100"},
        SweepParam{4, 1024, 50, "t4_r1024_w50"},
        SweepParam{8, 16, 50, "t8_r16_w50"},
        SweepParam{8, 256, 80, "t8_r256_w80"}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace scot
