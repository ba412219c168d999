// Reproducibility contract of the bench harness: with --seed fixed and an
// op budget (op_budget != 0, runs == 1), two runs of the same cell execute
// bit-identical per-thread key/op streams, so the op counts — total and
// per-type — must match exactly.  This is what makes a fixed-seed run
// comparable across machines and what the --seed CLI flag promises.
#include <gtest/gtest.h>

#include "bench/options.hpp"
#include "bench/runner.hpp"
#include "tests/test_util.hpp"

namespace scot::bench {
namespace {

CaseConfig budget_case(std::uint64_t seed) {
  CaseConfig cfg;
  cfg.structure = StructureId::kHList;
  cfg.scheme = SchemeId::kEBR;
  cfg.threads = 2;
  cfg.key_range = 128;
  cfg.seed = seed;
  cfg.op_budget =
      static_cast<std::uint64_t>(scot::test::scaled_iters(50000));
  return cfg;
}

TEST(BenchDeterminism, SameSeedSameOpCounts) {
  const CaseConfig cfg = budget_case(1234);
  const CaseResult a = run_case(cfg);
  const CaseResult b = run_case(cfg);

  EXPECT_EQ(a.total_ops, cfg.op_budget * cfg.threads);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.removes, b.removes);
  EXPECT_EQ(a.reads + a.inserts + a.removes, a.total_ops);
  EXPECT_GT(a.reads, 0u);
  EXPECT_GT(a.inserts, 0u);
  EXPECT_GT(a.removes, 0u);
}

TEST(BenchDeterminism, DifferentSeedDifferentMix) {
  // Verified stable: with these two fixed seeds the attempted-op triples
  // differ (they are drawn from different Xoshiro streams), which is
  // exactly what distinguishes a real --seed plumb-through from a
  // hardcoded constant.
  const CaseResult a = run_case(budget_case(1234));
  const CaseResult b = run_case(budget_case(4321));
  EXPECT_EQ(a.total_ops, b.total_ops) << "budget fixes the total";
  EXPECT_TRUE(a.reads != b.reads || a.inserts != b.inserts ||
              a.removes != b.removes)
      << "op mix should depend on the seed";
}

TEST(BenchDeterminism, ZipfianBudgetRunsAreReproducible) {
  CaseConfig cfg = budget_case(77);
  cfg.key_dist = KeyDist::kZipfian;
  cfg.zipf_theta = 0.9;
  const CaseResult a = run_case(cfg);
  const CaseResult b = run_case(cfg);
  EXPECT_EQ(a.total_ops, cfg.op_budget * cfg.threads);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.removes, b.removes);
}

TEST(BenchDeterminism, PinnedBudgetRunCompletes) {
  // Affinity is best-effort (pin_this_thread may fail on restricted
  // runners); the contract is that pinning never changes op accounting.
  CaseConfig cfg = budget_case(5);
  cfg.pin_threads = true;
  const CaseResult r = run_case(cfg);
  EXPECT_EQ(r.total_ops, cfg.op_budget * cfg.threads);
  EXPECT_EQ(r.reads + r.inserts + r.removes, r.total_ops);
}

TEST(BenchDeterminism, TimedRunsStillReportOpMix) {
  CaseConfig cfg = budget_case(9);
  cfg.op_budget = 0;  // timed mode
  cfg.millis = 40;
  const CaseResult r = run_case(cfg);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_EQ(r.reads + r.inserts + r.removes, r.total_ops);
}

}  // namespace
}  // namespace scot::bench
