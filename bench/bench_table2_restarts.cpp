// Table 2: restart statistics under HP, key range 10,000, 50r/25i/25d.
// The paper reports (at 1/64/256 threads) that the Harris-Michael list's
// restart rate climbs to 8.19% of operations while Harris+SCOT stays at
// ~0%.  Rows here are the host's thread counts; the shape to check is the
// per-list restart ratio, not the absolute counts.
#include <cinttypes>
#include <cstdio>

#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv);
  const auto threads = env_threads();
  const int ms = env_ms(400);
  std::printf(
      "SCOT reproduction — Table 2 (restart statistics, HP, range 10,000)\n\n");
  Table t({"threads", "HMList restarts", "HMList ops/s", "HMList restart%",
           "HList restarts", "HList ops/s", "HList restart%"});
  for (unsigned th : threads) {
    CaseConfig cfg;
    cfg.scheme = SchemeId::kHP;
    cfg.threads = th;
    cfg.key_range = 10000;
    cfg.millis = ms;
    cfg.runs = env_runs();
    apply_session_flags(cfg);

    cfg.structure = StructureId::kHMList;
    const CaseResult hm = run_case(cfg);
    cfg.structure = StructureId::kHListWF;
    const CaseResult hl = run_case(cfg);

    const double hm_pct =
        hm.total_ops ? 100.0 * static_cast<double>(hm.restarts) /
                           static_cast<double>(hm.total_ops)
                     : 0.0;
    const double hl_pct =
        hl.total_ops ? 100.0 * static_cast<double>(hl.restarts) /
                           static_cast<double>(hl.total_ops)
                     : 0.0;
    t.add_row({std::to_string(th), std::to_string(hm.restarts),
               format_si(hm.mops * 1e6), format_double(hm_pct, 2),
               std::to_string(hl.restarts), format_si(hl.mops * 1e6),
               format_double(hl_pct, 2)});
  }
  t.print();
  std::printf(
      "\n(restart%% = full traversal restarts / operations; the paper reports "
      "0%%->8.19%% for HMList and ~0%% for HList)\n");
  return 0;
}
