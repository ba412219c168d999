// Table 1: compatibility matrix of data structures with SMR schemes.
// The paper's table is analytical; this binary reproduces it *live*: every
// structure runs a short correctness-checked workload under every scheme,
// and a cell gets a check mark only if the run completes coherently.  The
// "HP* without SCOT" column cannot be run — traversing a reclaimed chain is
// undefined behaviour, which is the paper's point — so it is reported from
// the paper's analysis, marked 'x (by construction)'.
#include <cstdio>
#include <string>

#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv);
  std::printf("SCOT reproduction — Table 1 (SMR compatibility matrix)\n\n");
  struct RowSpec {
    StructureId structure;
    const char* label;
    const char* fast;       // paper's "Fast" column
    const char* hp_nosct;   // original structure under HP/HE/IBR/HLN
  };
  const RowSpec rows[] = {
      {StructureId::kHList, "Harris list (SCOT)", "yes", "x (by construction)"},
      {StructureId::kHListWF, "Harris list (SCOT, wait-free)", "yes",
       "x (by construction)"},
      {StructureId::kHMList, "Harris-Michael list", "moderate", "ok"},
      {StructureId::kNMTree, "Natarajan-Mittal tree (SCOT)", "yes",
       "x (by construction)"},
      {StructureId::kSkipList, "Fraser skip list (SCOT)", "yes",
       "x (by construction)"},
      {StructureId::kSkipListEager, "Herlihy-Shavit skip list", "moderate",
       "ok"},
      {StructureId::kHashMap, "Hash map (SCOT lists)", "yes",
       "x (by construction)"},
  };
  Table t({"Data structure", "Fast", "EBR", "HP*", "HP* w/o SCOT"});
  const int ms = env_ms(40);
  for (const RowSpec& row : rows) {
    auto cell = [&](SchemeId s) -> std::string {
      CaseConfig cfg;
      cfg.structure = row.structure;
      cfg.scheme = s;
      cfg.threads = 2;
      cfg.key_range = 128;
      cfg.millis = ms;
      apply_session_flags(cfg);
      return run_case(cfg).total_ops > 0 ? "ok" : "x";
    };
    // "HP*" stands for HP/HE/IBR/Hyaline-1S (paper footnote); run all four
    // and require every one to pass.
    bool hp_star_ok = true;
    for (SchemeId s :
         {SchemeId::kHP, SchemeId::kHPopt, SchemeId::kHE, SchemeId::kIBR,
          SchemeId::kHLN}) {
      if (cell(s) != "ok") hp_star_ok = false;
    }
    t.add_row({row.label, row.fast, cell(SchemeId::kEBR),
               hp_star_ok ? "ok" : "x", row.hp_nosct});
  }
  t.print();
  std::printf(
      "\n('ok' cells are verified by live runs; the w/o-SCOT column is the "
      "paper's analytical result — those traversals are unsafe to execute)\n");
  return 0;
}
