// Figure 12: NMTree with an out-of-cache key range.  The paper uses
// 50,000,000 keys on a 384 GiB machine; this container scales the range to
// 2,000,000 (still far beyond L2, ~1M live nodes after prefill) — the
// regime, not the absolute size, is what the figure demonstrates.
// Expected shape: absolute throughput drops vs Figure 9 (deeper traversals,
// cache misses), relative scheme ordering unchanged; IBR and Hyaline-1S
// competitive with EBR; EBR keeps the most unreclaimed objects at high
// thread counts, HP/HPopt the fewest.
#include "bench/fig_common.hpp"

int main(int argc, char** argv) {
  using namespace scot::bench;
  constexpr std::uint64_t kRange = 2000000;  // paper: 50,000,000 (see above)
  fig_init(argc, argv);
  std::printf("SCOT reproduction — Figure 12 (NMTree, out-of-cache range)\n\n");
  run_grid({"Fig 12a: NMTree throughput, range 2,000,000",
            StructureId::kNMTree, kRange},
           500);
  GridSpec mem{"Fig 12b: NMTree not-yet-reclaimed, range 2,000,000",
               StructureId::kNMTree, kRange, Metric::kAvgPending};
  mem.include_nr = false;
  run_grid(mem, 500);
  return 0;
}
