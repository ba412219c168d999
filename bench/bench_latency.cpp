// Per-operation latency percentiles across the scheme x structure grid.
//
// Every cell runs the standard harness workload (mixed 50/25/25 by default)
// with the runner's latency sampler on: every Nth operation is timed into a
// log-bucketed histogram (obs/histogram.hpp) and the merged p50/p99/p999
// print per scheme.  This is the reclamation tail-latency view the
// throughput figures hide — a scheme whose scans stall readers shows up
// here as a p999 spike long before it dents Mops.
//
// --trace <path> additionally writes the Chrome trace-event JSON of every
// SMR event ring (scan/seal/barrier spans, join/leave/adopt instants) after
// the sweep; load it in chrome://tracing or https://ui.perfetto.dev.  The
// rings only record in builds configured with -DSCOT_TRACE=ON — in a
// default build the file is written but empty.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "obs/trace.hpp"

namespace scot::bench {
namespace {

constexpr StructureId kStructures[] = {
    StructureId::kHMList,   StructureId::kHList, StructureId::kNMTree,
    StructureId::kHashMap,  StructureId::kSkipList,
};

int run(int argc, char** argv) {
  // Peel --trace by hand: extract_bench_flags (via fig_init) hard-errors on
  // flags it does not own.
  std::string trace_path;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  fig_init(static_cast<int>(rest.size()), rest.data());

  const auto threads = env_threads();
  const unsigned th = threads.back();  // deepest configured thread count
  const int ms = env_ms(200);
  const unsigned runs = env_runs();

  for (const StructureId structure : kStructures) {
    CaseConfig proto;
    proto.structure = structure;
    proto.key_range = 512;
    proto.threads = th;
    proto.millis = ms;
    proto.runs = runs;
    apply_session_flags(proto);

    char title[96];
    std::snprintf(title, sizeof(title), "latency: %s",
                  structure_name(structure));
    std::printf("== %s ==\n", title);
    std::printf("   range=%llu threads=%u mix=%d/%d/%d ms=%d runs=%u "
                "sample=1/%u\n",
                static_cast<unsigned long long>(proto.key_range), th,
                proto.read_pct, proto.insert_pct, proto.delete_pct, ms, runs,
                proto.latency_sample_every);

    Table t({"scheme", "p50 ns", "p99 ns", "p99.9 ns", "Mops"});
    for (const SchemeId s : kAllSchemes) {
      CaseConfig cfg = proto;
      cfg.scheme = s;
      const CaseResult r = run_case(cfg);
      t.add_row({scheme_name(s), format_double(r.p50_ns, 0),
                 format_double(r.p99_ns, 0), format_double(r.p999_ns, 0),
                 format_double(r.mops, 2)});
    }
    t.print();
    std::printf("   (sampled per-op latency; bucket midpoints, <=6.25%% "
                "bucket error)\n\n");
  }

  if (!trace_path.empty()) {
    const auto& log = scot::obs::TraceLog::instance();
    if (!log.export_chrome(trace_path)) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %llu trace event(s) to %s%s\n",
                static_cast<unsigned long long>(log.total_events()),
                trace_path.c_str(),
                SCOT_TRACE ? "" : " (build with -DSCOT_TRACE=ON to record)");
  }
  return 0;
}

}  // namespace
}  // namespace scot::bench

int main(int argc, char** argv) { return scot::bench::run(argc, argv); }
