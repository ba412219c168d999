// Figure 9: Natarajan-Mittal tree throughput, 50% read / 50% write, key
// ranges 128 and 100,000.  Expected shape: all schemes close to NR at the
// tiny range; EBR on top at the large range with Hyaline-1S and IBR close
// behind.
#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv);
  std::printf("SCOT reproduction — Figure 9 (NMTree throughput, 50r/25i/25d)\n\n");
  run_grid({"Fig 9a: NMTree, range 128", StructureId::kNMTree, 128}, 300);
  run_grid({"Fig 9b: NMTree, range 100,000", StructureId::kNMTree, 100000},
           400);
  return 0;
}
