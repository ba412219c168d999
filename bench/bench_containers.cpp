// Scheme × container grid: MSQueue, TreiberStack, and the Michael deque
// under all 7 reclamation schemes (ROADMAP "Beyond maps"; DESIGN.md §11).
// Two workloads per container:
//   mixed  — every worker rolls 50% push / 50% pop per op (the container
//            analogue of the paper's headline write-heavy mix)
//   split  — even workers are pure producers, odd workers pure consumers
//            (the queue's natural serving shape; skipped at 1 thread where
//            it degenerates to the mixed roll)
// Expected shape: the stack's single-CAS top makes it the contention
// ceiling (restarts high, recoveries 0 by construction); the queue's
// help-swing recoveries grow with producers; the deque pays the anchor
// indirection but stays flat across schemes if the guard API is truly
// structure-agnostic — that flatness is what this grid is for.
#include "bench/fig_common.hpp"

namespace {

using namespace scot::bench;

// run_grid() with the container twists: the workload is a push/pop mix
// (read% pinned to 0) and the split flag is forced per grid so one
// invocation prints both workload variants.
void run_container_grid(const char* title, scot::StructureId structure,
                        std::uint64_t range, int def_ms, bool split) {
  const auto threads = env_threads();
  const int ms = env_ms(def_ms);
  const unsigned runs = env_runs();

  CaseConfig proto;
  proto.structure = structure;
  proto.key_range = range;
  proto.read_pct = 0;  // containers have no read op
  proto.insert_pct = 50;
  proto.delete_pct = 50;
  proto.millis = ms;
  proto.runs = runs;
  proto.sample_memory = true;
  apply_session_flags(proto);
  proto.split_workload = split;

  std::printf("== %s ==\n", title);
  std::printf("   structure=%s prefill=%llu mix=%s ms=%d runs=%u",
              structure_name(structure),
              static_cast<unsigned long long>(range / 2),
              split ? "split producer/consumer" : "50 push / 50 pop", ms,
              runs);
  if (proto.pin_threads) std::printf(" pinned");
  if (!proto.asymmetric_fences) std::printf(" no-asym");
  if (proto.background_reclaim) std::printf(" bg-reclaim");
  std::printf("\n");

  std::vector<std::string> header{"threads"};
  for (scot::SchemeId s : kAllSchemes) header.push_back(scheme_name(s));
  Table t(std::move(header));
  for (unsigned th : threads) {
    if (split && th < 2) continue;  // needs at least one of each role
    std::vector<std::string> row{std::to_string(th)};
    for (scot::SchemeId s : kAllSchemes) {
      CaseConfig cfg = proto;
      cfg.scheme = s;
      cfg.threads = th;
      const CaseResult r = run_case(cfg);
      row.push_back(format_double(r.mops, 2));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("   (Mops/s; higher is better)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  fig_init(argc, argv);
  std::printf(
      "SCOT reproduction — scheme x container grid (queue/stack/deque)\n\n");
  struct Grid {
    const char* mixed_title;
    const char* split_title;
    scot::StructureId structure;
  };
  constexpr Grid kGrids[] = {
      {"Containers: MS queue, mixed 50/50",
       "Containers: MS queue, split producers/consumers",
       scot::StructureId::kMSQueue},
      {"Containers: Treiber stack, mixed 50/50",
       "Containers: Treiber stack, split producers/consumers",
       scot::StructureId::kTreiberStack},
      {"Containers: Michael deque, mixed 50/50",
       "Containers: Michael deque, split producers/consumers",
       scot::StructureId::kDeque},
  };
  for (const Grid& g : kGrids) {
    run_container_grid(g.mixed_title, g.structure, 2048, 300, false);
    run_container_grid(g.split_title, g.structure, 2048, 300, true);
  }
  return 0;
}
