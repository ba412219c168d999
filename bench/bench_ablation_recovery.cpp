// Ablation (paper §3.2.1 / §3.2.2): the recovery optimization — escaping a
// failed dangerous-zone validation to the last safe node's new successor
// instead of restarting from the head.  The paper found it "beneficial for
// Harris' list" but not for the tree; this bench quantifies the list side:
// throughput plus the restart/recovery counters that explain it.
//
// Both variants are AnyMap cells (StructureId::kHList with the default
// traits, StructureId::kHListNoRecovery without the escape), so the runs go
// through the same run_case() as every figure binary.
#include <cstdio>

#include "bench/fig_common.hpp"

using namespace scot;
using namespace scot::bench;

static CaseResult run_list(StructureId structure, unsigned threads,
                           std::uint64_t range, int ms) {
  CaseConfig cfg;
  cfg.structure = structure;
  cfg.scheme = SchemeId::kHP;
  cfg.threads = threads;
  cfg.key_range = range;
  cfg.millis = ms;
  cfg.runs = env_runs();
  apply_session_flags(cfg);
  return run_case(cfg);
}

int main(int argc, char** argv) {
  fig_init(argc, argv);
  const int ms = env_ms(300);
  std::printf(
      "SCOT ablation — §3.2.1 recovery optimization (Harris list, HP)\n\n");
  for (std::uint64_t range : {std::uint64_t{512}, std::uint64_t{10000}}) {
    Table t({"threads", "recovery Mops", "recovery restarts", "recoveries",
             "no-recovery Mops", "no-recovery restarts"});
    for (unsigned th : env_threads()) {
      const CaseResult on = run_list(StructureId::kHList, th, range, ms);
      const CaseResult off =
          run_list(StructureId::kHListNoRecovery, th, range, ms);
      t.add_row({std::to_string(th), format_double(on.mops, 2),
                 std::to_string(on.restarts), std::to_string(on.recoveries),
                 format_double(off.mops, 2), std::to_string(off.restarts)});
    }
    std::printf("== key range %llu ==\n",
                static_cast<unsigned long long>(range));
    t.print();
    std::printf("\n");
  }
  return 0;
}
