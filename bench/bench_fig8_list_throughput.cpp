// Figure 8: linked-list throughput, 50% read / 50% write, key ranges 512
// and 10,000; Harris-Michael baseline vs. Harris+SCOT (wait-free traversal
// variant, as evaluated in the paper).  Expected shape: HList >= HMList at
// every scheme, with the gap largest at the small key range; EBR ~ upper
// bound; HPopt above HP.
#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  fig_init(argc, argv);
  std::printf("SCOT reproduction — Figure 8 (list throughput, 50r/25i/25d)\n\n");
  run_grid({"Fig 8a: Harris-Michael list, range 512", StructureId::kHMList,
            512},
           300);
  run_grid({"Fig 8a: Harris list (SCOT, wait-free search), range 512",
            StructureId::kHListWF, 512},
           300);
  run_grid({"Fig 8b: Harris-Michael list, range 10,000", StructureId::kHMList,
            10000},
           300);
  run_grid({"Fig 8b: Harris list (SCOT, wait-free search), range 10,000",
            StructureId::kHListWF, 10000},
           300);
  return 0;
}
