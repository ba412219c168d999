// Shared scaffolding for the figure-reproduction binaries: one table per
// (structure, key range), rows = thread counts, columns = SMR schemes —
// the same series the paper plots.  Every binary parses the shared optional
// flags (--seed, --dist, --pin, ...) once in fig_init() and applies them to
// each case through apply_session_flags().
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "bench/runner.hpp"
#include "bench/table.hpp"
#include "common/asymfence.hpp"

namespace scot::bench {

// The binary's flags, parsed once by fig_init().
inline BenchFlags& session_flags() {
  static BenchFlags flags;
  return flags;
}

// Parses the shared optional flags.  Exits 0 on --help, 2 on an unknown or
// malformed flag or on stray positional arguments (the figure binaries
// take none) — never silently ignores input.
inline void fig_init(int argc, char** argv) {
  BenchFlags& flags = session_flags();
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string error;
  if (!extract_bench_flags(args, flags, &error)) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", argv[0], error.c_str(),
                 argv[0], kFlagUsage);
    std::exit(2);
  }
  if (flags.help) {
    std::printf("usage: %s %s\n", argv[0], kFlagUsage);
    std::exit(0);
  }
  if (!args.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\nusage: %s %s\n",
                 argv[0], args.front().c_str(), argv[0], kFlagUsage);
    std::exit(2);
  }
}

// Copies the session flags into a case: seed, key distribution, pinning,
// op budget, and (when --preset was given) the workload mix.
inline void apply_session_flags(CaseConfig& cfg) {
  const BenchFlags& f = session_flags();
  cfg.seed = f.seed;
  cfg.key_dist = f.dist;
  cfg.zipf_theta = f.zipf_theta;
  cfg.pin_threads = f.pin;
  cfg.op_budget = f.op_budget;
  cfg.asymmetric_fences = f.asym;
  cfg.background_reclaim = f.bg;
  // Serving-layer shape (bench_kv).  --shards is grid state, not case
  // state — bench_kv picks its shard counts before building cases — so
  // only the per-case knobs flow through here.
  cfg.value_size = f.value_size;
  cfg.key_len = f.key_len;
  // Container shape (bench_containers): --split pins producer/consumer
  // roles; the map/kv binaries never read it.
  cfg.split_workload = f.split;
  if (f.preset) {
    cfg.read_pct = f.preset->read_pct;
    cfg.insert_pct = f.preset->insert_pct;
    cfg.delete_pct = f.preset->delete_pct;
  }
}

enum class Metric { kThroughputMops, kAvgPending };

struct GridSpec {
  const char* title;
  StructureId structure;
  std::uint64_t key_range;
  Metric metric = Metric::kThroughputMops;
  int read_pct = 50;  // paper headline mix: 50r / 25i / 25d
  int insert_pct = 25;
  int delete_pct = 25;
  bool include_nr = true;  // the paper's memory figures omit NR
};

inline void run_grid(const GridSpec& spec, int def_ms) {
  const auto threads = env_threads();
  const int ms = env_ms(def_ms);
  const unsigned runs = env_runs();

  CaseConfig proto;
  proto.structure = spec.structure;
  proto.key_range = spec.key_range;
  proto.read_pct = spec.read_pct;
  proto.insert_pct = spec.insert_pct;
  proto.delete_pct = spec.delete_pct;
  proto.millis = ms;
  proto.runs = runs;
  proto.sample_memory = spec.metric == Metric::kAvgPending;
  apply_session_flags(proto);

  std::printf("== %s ==\n", spec.title);
  std::printf("   structure=%s range=%llu mix=%d/%d/%d ms=%d runs=%u",
              structure_name(spec.structure),
              static_cast<unsigned long long>(spec.key_range), proto.read_pct,
              proto.insert_pct, proto.delete_pct, ms, runs);
  if (proto.key_dist == KeyDist::kZipfian)
    std::printf(" dist=zipfian(%.2f)", proto.zipf_theta);
  if (proto.pin_threads) std::printf(" pinned");
  if (!proto.asymmetric_fences) std::printf(" no-asym");
  if (proto.background_reclaim) std::printf(" bg-reclaim");
  std::printf(" fence=%s\n", asymfence::runtime_path_name());

  std::vector<std::string> header{"threads"};
  std::vector<SchemeId> schemes;
  for (SchemeId s : kAllSchemes) {
    if (!spec.include_nr && s == SchemeId::kNR) continue;
    schemes.push_back(s);
    header.push_back(scheme_name(s));
  }
  Table t(std::move(header));
  for (unsigned th : threads) {
    std::vector<std::string> row{std::to_string(th)};
    for (SchemeId s : schemes) {
      CaseConfig cfg = proto;
      cfg.scheme = s;
      cfg.threads = th;
      const CaseResult r = run_case(cfg);
      row.push_back(spec.metric == Metric::kThroughputMops
                        ? format_double(r.mops, 2)
                        : format_double(r.avg_pending, 0));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("%s\n", spec.metric == Metric::kThroughputMops
                          ? "   (Mops/s; higher is better)"
                          : "   (avg not-yet-reclaimed nodes; lower is "
                            "better; HLN reported via the domain-wide gauge)");
  std::printf("\n");
}

}  // namespace scot::bench
