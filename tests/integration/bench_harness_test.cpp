// Benchmark-harness smoke tests: every figure binary funnels through
// run_case(), so a short run per scheme/structure here guards the whole
// bench/ directory against bit-rot.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "bench/options.hpp"
#include "bench/runner.hpp"
#include "bench/table.hpp"

namespace scot::bench {
namespace {

CaseConfig tiny_case(StructureId s, SchemeId r) {
  CaseConfig cfg;
  cfg.structure = s;
  cfg.scheme = r;
  cfg.threads = 2;
  cfg.key_range = 64;
  cfg.millis = 30;
  cfg.sample_memory = true;
  return cfg;
}

TEST(BenchHarness, RunsEverySchemeOnTheScotList) {
  for (SchemeId s : kAllSchemes) {
    CaseResult r = run_case(tiny_case(StructureId::kHList, s));
    EXPECT_GT(r.total_ops, 0u) << scheme_name(s);
    EXPECT_GT(r.mops, 0.0) << scheme_name(s);
    EXPECT_GE(r.seconds, 0.02) << scheme_name(s);
  }
}

TEST(BenchHarness, RunsEveryStructureUnderHp) {
  for (StructureId st :
       {StructureId::kHMList, StructureId::kHList, StructureId::kHListWF,
        StructureId::kNMTree, StructureId::kHashMap}) {
    CaseResult r = run_case(tiny_case(st, SchemeId::kHP));
    EXPECT_GT(r.total_ops, 0u) << structure_name(st);
  }
}

TEST(BenchHarness, MemorySamplerReportsPending) {
  CaseConfig cfg = tiny_case(StructureId::kHList, SchemeId::kEBR);
  cfg.millis = 100;
  cfg.key_range = 512;
  CaseResult r = run_case(cfg);
  // EBR under churn always has *some* retired-but-unreclaimed nodes.
  EXPECT_GT(r.peak_pending, 0);
  EXPECT_GE(r.avg_pending, 0.0);
}

TEST(BenchHarness, NrNeverReclaims) {
  CaseConfig cfg = tiny_case(StructureId::kHList, SchemeId::kNR);
  cfg.millis = 60;
  CaseResult r = run_case(cfg);
  EXPECT_GT(r.peak_pending, 0) << "NR leaks by design";
}

TEST(BenchHarness, RestartCountersSurface) {
  CaseConfig cfg = tiny_case(StructureId::kHMList, SchemeId::kHP);
  cfg.threads = 4;
  cfg.key_range = 16;
  cfg.millis = 80;
  CaseResult r = run_case(cfg);
  // The HM list restarts under contention (Table 2); on 2 cores the count
  // may be modest but the plumbing must surface it.
  EXPECT_GE(r.restarts, 0u);
  EXPECT_GT(r.total_ops, 0u);
}

TEST(BenchHarness, EnvThreadParsing) {
  setenv("SCOT_BENCH_THREADS", "1,3,7", 1);
  auto v = env_threads();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[1], 3u);
  EXPECT_EQ(v[2], 7u);
  setenv("SCOT_BENCH_THREADS", "garbage", 1);
  EXPECT_FALSE(env_threads().empty()) << "falls back to defaults";
  // Tokens that are not whole decimals in [1, kMaxThreads] are dropped
  // (only parsed here: no case ever runs with such a count).
  const std::vector<unsigned> defaults{1, 2, 4, 8};
  setenv("SCOT_BENCH_THREADS", "4x", 1);
  EXPECT_EQ(env_threads(), defaults) << "'4x' is not 4";
  setenv("SCOT_BENCH_THREADS", "0", 1);
  EXPECT_EQ(env_threads(), defaults);
  setenv("SCOT_BENCH_THREADS", "1,100000,2", 1);
  EXPECT_EQ(env_threads(), (std::vector<unsigned>{1, 2}))
      << "a count past kMaxThreads is a memory bomb, not a grid row";
  unsetenv("SCOT_BENCH_THREADS");
  EXPECT_EQ(env_threads().size(), 4u);
}

TEST(BenchHarness, EnvMsAndRuns) {
  setenv("SCOT_BENCH_MS", "123", 1);
  EXPECT_EQ(env_ms(999), 123);
  // Garbage, zero and negative durations fall back, as SCOT_BENCH_RUNS
  // does: a 0 ms cell would measure nothing.
  for (const char* bad : {"garbage", "0", "-5"}) {
    setenv("SCOT_BENCH_MS", bad, 1);
    EXPECT_EQ(env_ms(999), 999) << bad;
  }
  unsetenv("SCOT_BENCH_MS");
  EXPECT_EQ(env_ms(999), 999);
  setenv("SCOT_BENCH_RUNS", "5", 1);
  EXPECT_EQ(env_runs(), 5u);
  unsetenv("SCOT_BENCH_RUNS");
  EXPECT_EQ(env_runs(), 1u);
}

TEST(BenchHarness, TableFormatsAlignedMarkdown) {
  Table t({"threads", "EBR", "HP"});
  t.add_row({"1", "12.34", "5.67"});
  t.add_row({"128", "1.00", "0.99"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| threads | EBR   | HP   |"), std::string::npos) << s;
  EXPECT_NE(s.find("| 128     | 1.00  | 0.99 |"), std::string::npos) << s;
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(BenchHarness, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_si(1234.0), "1.23k");
  EXPECT_EQ(format_si(1234567.0), "1.23M");
  EXPECT_EQ(format_si(12.0), "12");
  EXPECT_EQ(format_si(2.5e9), "2.50G");
}

TEST(BenchHarness, MedianOfRunsIsStable) {
  CaseConfig cfg = tiny_case(StructureId::kHList, SchemeId::kEBR);
  cfg.runs = 3;
  cfg.millis = 20;
  CaseResult r = run_case(cfg);
  EXPECT_GT(r.total_ops, 0u);
}

}  // namespace
}  // namespace scot::bench
