// Figure 11: NMTree average not-yet-reclaimed nodes (lower is better).
// Expected shape: HP/HPopt lowest ("strict and conservative reclamation"),
// EBR highest ("relaxed and delayed reclamation").
#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv);
  std::printf("SCOT reproduction — Figure 11 (NMTree memory overhead)\n\n");
  GridSpec a{"Fig 11a: NMTree, range 128", StructureId::kNMTree, 128,
             Metric::kAvgPending};
  a.include_nr = false;
  run_grid(a, 300);
  GridSpec b{"Fig 11b: NMTree, range 100,000", StructureId::kNMTree, 100000,
             Metric::kAvgPending};
  b.include_nr = false;
  run_grid(b, 400);
  return 0;
}
